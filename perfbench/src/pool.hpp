// A mixed collector pool driven without a simulator: KV and count-min sketch
// collectors, a fleet of DartSwitchPipelines with every collector row
// loaded, and delivery of crafted frames straight into each collector's
// RNIC through process_frames. Used by query_mix.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/collector.hpp"
#include "core/primitives.hpp"
#include "core/report_crafter.hpp"
#include "switchsim/dart_switch.hpp"
#include "trace.hpp"

namespace perfbench {

struct PoolConfig {
  dart::core::DartConfig dart;
  dart::core::SketchBackendConfig sketch;
  std::uint32_t n_kv = 2;      // collectors 0 .. n_kv-1
  std::uint32_t n_sketch = 2;  // collectors n_kv .. n_kv+n_sketch-1
  std::uint32_t n_switches = 16;
  bool primitives = false;     // DTA primitive regions on every collector
  dart::core::DtaPrimitivesConfig prim{};  // their geometry and seeds
  std::uint64_t seed = 1;
};

// RNIC verdict totals over the pool.
struct RnicTotals {
  std::uint64_t frames = 0;
  std::uint64_t executed = 0;
  std::uint64_t rejects = 0;
};

class MixedPool {
 public:
  explicit MixedPool(const PoolConfig& config);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(collectors_.size());
  }
  [[nodiscard]] dart::core::Collector& collector(std::uint32_t c) noexcept {
    return *collectors_[c];
  }
  [[nodiscard]] bool is_sketch(std::uint32_t c) const noexcept {
    return c >= config_.n_kv;
  }
  [[nodiscard]] std::uint32_t owner_of(std::span<const std::byte> key) const noexcept {
    return crafter_.collector_of(key, size());
  }
  [[nodiscard]] const dart::core::ReportCrafter& crafter() const noexcept {
    return crafter_;
  }
  [[nodiscard]] dart::switchsim::DartSwitchPipeline& switch_at(std::uint32_t s) noexcept {
    return *switches_[s];
  }
  [[nodiscard]] std::uint32_t n_switches() const noexcept {
    return static_cast<std::uint32_t>(switches_.size());
  }

  // Hands `frames` to the RNIC of the collector each one is addressed to,
  // one process_frames batch per collector (traced as rdma spans).
  void deliver(const std::vector<std::vector<std::byte>>& frames,
               Tracer& tracer);

  // Frames emitted by every switch so far.
  [[nodiscard]] std::uint64_t frames_emitted() const noexcept;
  [[nodiscard]] RnicTotals rnic_totals() const noexcept;
  // Frames handed to KV and to sketch RNICs.
  [[nodiscard]] std::uint64_t kv_frames() const noexcept { return kv_frames_; }
  [[nodiscard]] std::uint64_t sketch_frames() const noexcept {
    return sketch_frames_;
  }
  // Frames whose destination matched no collector.
  [[nodiscard]] std::uint64_t unroutable() const noexcept { return unroutable_; }

 private:
  PoolConfig config_;
  dart::core::ReportCrafter crafter_;
  std::vector<std::unique_ptr<dart::core::Collector>> collectors_;
  std::vector<std::unique_ptr<dart::switchsim::DartSwitchPipeline>> switches_;
  std::vector<std::vector<std::span<const std::byte>>> batches_;  // [c]
  std::uint64_t kv_frames_ = 0;
  std::uint64_t sketch_frames_ = 0;
  std::uint64_t unroutable_ = 0;
};

}  // namespace perfbench
