// The dartcheck reference oracle — a deliberately boring re-implementation
// of the fabric's end-to-end semantics for differential testing.
//
// The real pipeline a report takes is long: ReportCrafter serializes a
// RoCEv2/DTA frame, SimulatedRnic re-parses and validates it, and a DMA (or
// atomic execute) mutates registered store memory. ReferenceFabric skips all
// of it: the same logical operation is applied *directly* to a private
// DartStore in one thread, no wire, no parsing, no RNIC. If the two
// disagree on a single byte of store memory — or on a query answer — one of
// the layers has a bug, and the property runner shrinks the op sequence
// that exposes it.
//
// reference_resolve() is the same idea for the query plane: an independent
// implementation of the §4 return policies, diffed against QueryEngine on
// identical slot contents.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <memory>

#include "core/collector.hpp"
#include "core/config.hpp"
#include "core/primitives.hpp"
#include "core/query.hpp"
#include "check/reference_crafter.hpp"
#include "core/report_crafter.hpp"
#include "core/store.hpp"

namespace dart::check {

// One logical telemetry operation, the unit the differential properties
// generate. Keys are simulation ids (core::sim_key encoding).
struct ReportOp {
  enum class Kind : std::uint8_t {
    kWrite,        // RDMA WRITE of copy `copy` of (key, value)
    kMultiwrite,   // §7 DTA multiwrite: all N copies in one frame
    kFetchAdd,     // atomic add of `operand` to store word `word_index`
    kCompareSwap,  // atomic CAS: word `word_index`, compare -> operand
    // DTA translator primitives (primitives.hpp); the fabric must have
    // primitives enabled before submitting these.
    kAppend,        // ring append; the seq comes from the fabric's own tail
    kKeyIncrement,  // FETCH_ADD of `operand` on the counter cell of `key`
    kPostcard,      // hop `hop` of flow `key`'s slot group
  };

  Kind kind = Kind::kWrite;
  std::uint64_t key = 0;
  std::vector<std::byte> value;
  std::uint32_t copy = 0;        // kWrite: which of the N slots
  std::uint64_t word_index = 0;  // atomics: 8-byte word within the store
  std::uint64_t operand = 0;     // addend (kFetchAdd/kKeyIncrement) / swap
  std::uint64_t compare = 0;     // kCompareSwap only
  std::uint32_t hop = 0;         // kPostcard only
  bool dropped = false;          // lost in the network: a PSN-sequence gap
};

// Independent return-policy implementation (the spec of query.hpp, written
// from scratch): filter `slots` by `want` checksum in copy order, then apply
// `policy`. Diffed against QueryEngine::resolve on the same store state.
[[nodiscard]] core::QueryResult reference_resolve(
    std::span<const core::SlotView> slots, std::uint32_t want,
    core::ReturnPolicy policy);

// Single-threaded ground truth: applies ReportOps straight to a DartStore.
class ReferenceFabric {
 public:
  explicit ReferenceFabric(const core::DartConfig& config)
      : store_(config) {}

  // Brings up the reference twins of the collector's primitive regions.
  // Mirror of Collector::enable_primitives; call before applying primitive
  // ops.
  void enable_primitives(const core::DtaPrimitivesConfig& config);
  [[nodiscard]] bool primitives_enabled() const noexcept {
    return ring_ != nullptr;
  }

  void apply(const ReportOp& op);

  // Resolves via reference_resolve (NOT QueryEngine) so the query plane is
  // diffed too, not shared.
  [[nodiscard]] core::QueryResult resolve(std::span<const std::byte> key,
                                          core::ReturnPolicy policy) const;

  [[nodiscard]] const core::DartStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return store_.memory();
  }
  // Host-endian store word, for CAS-compare peeking by generators.
  [[nodiscard]] std::uint64_t word(std::uint64_t index) const noexcept;

  [[nodiscard]] std::uint64_t applied() const noexcept { return applied_; }
  [[nodiscard]] std::uint64_t cas_mismatches() const noexcept {
    return cas_mismatches_;
  }

  // Primitive twins (enable_primitives first). Like the switch register,
  // append_tail() counts every kAppend op — dropped frames consume a
  // sequence number without landing, which is exactly the hole the ring
  // reader's `missed` accounting must absorb.
  [[nodiscard]] core::AppendRing& ring() noexcept { return *ring_; }
  [[nodiscard]] core::CellSheet& counters() noexcept { return *counters_; }
  [[nodiscard]] core::PostcardStore& postcards() noexcept {
    return *postcards_;
  }
  [[nodiscard]] std::uint64_t append_tail() const noexcept {
    return append_tail_;
  }

 private:
  core::DartStore store_;
  std::uint64_t applied_ = 0;
  std::uint64_t cas_mismatches_ = 0;
  std::unique_ptr<core::AppendRing> ring_;
  std::unique_ptr<core::CellSheet> counters_;
  std::unique_ptr<core::PostcardStore> postcards_;
  std::uint64_t append_tail_ = 0;
};

// The real thing, driven op-by-op: a live Collector (RNIC + registered
// store memory) fed crafted frames. Ops alternate between ReportCrafter's
// template path and the field-by-field ReferenceCrafter (by PSN parity) so
// the differential properties cover both crafters. Dropped
// ops consume a PSN without delivering the frame — exactly the sequence gap
// a lost report leaves, which kTolerateLoss windows must absorb.
class WireDriver {
 public:
  explicit WireDriver(const core::DartConfig& config);

  // Enables the collector's primitive regions and precomputes the primitive
  // frame templates. Like ReferenceFabric, the driver then plays the switch
  // role for Append: it owns the tail register, and a dropped append still
  // consumes a sequence number.
  void enable_primitives(const core::DtaPrimitivesConfig& config);

  // Crafts the frame for `op`; delivers it to the RNIC unless op.dropped.
  // Returns the crafted frame so failing properties can attach it as a
  // corpus artifact.
  std::vector<std::byte> submit(const ReportOp& op);

  [[nodiscard]] core::QueryResult query(std::span<const std::byte> key,
                                        core::ReturnPolicy policy) const {
    return collector_.query(key, policy);
  }

  [[nodiscard]] core::Collector& collector() noexcept { return collector_; }
  [[nodiscard]] const core::Collector& collector() const noexcept {
    return collector_;
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return collector_.store().memory();
  }
  [[nodiscard]] const core::ReportCrafter& crafter() const noexcept {
    return crafter_;
  }
  [[nodiscard]] std::uint32_t next_psn() const noexcept { return psn_; }
  [[nodiscard]] std::uint64_t append_tail() const noexcept {
    return append_tail_;
  }

 private:
  core::Collector collector_;
  core::ReportCrafter crafter_;
  ReferenceCrafter reference_;
  core::ReporterEndpoint src_;
  core::RemoteStoreInfo dst_;
  core::FrameTemplate write_tpl_;
  core::FrameTemplate fetch_add_tpl_;
  core::FrameTemplate compare_swap_tpl_;
  core::FrameTemplate multiwrite_tpl_;
  // Primitive state (enable_primitives): region rows, templates, and the
  // switch-side append tail register.
  core::DtaPrimitivesConfig primitives_{};
  core::RemoteStoreInfo ring_dst_{};
  core::RemoteStoreInfo counter_dst_{};
  core::RemoteStoreInfo postcard_dst_{};
  core::FrameTemplate append_tpl_;
  core::FrameTemplate key_increment_tpl_;
  core::FrameTemplate postcard_tpl_;
  std::uint64_t append_tail_ = 0;
  std::uint32_t psn_ = 0;
};

}  // namespace dart::check
