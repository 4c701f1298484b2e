// StoreBackend — the pluggable collector-storage seam.
//
// The paper frames a collector as "just memory the RNIC writes into"; this
// module makes the SHAPE of that memory a backend choice instead of a
// hard-coded N-way checksum KV array. A backend owns four things:
//
//   1. the MR byte layout (how many addressable slots/cells, how wide),
//   2. slot/cell addressing — the formula a switch uses to turn a key into
//      remote vaddrs when crafting report frames,
//   3. the local apply path — the single-threaded reference semantics of
//      the wire op(s) the switch emits for one telemetry report, and
//   4. the query-side read path (resolve()), the only place collector CPU
//      appears.
//
// Two backends ship:
//
//   KvBackend     the default — DartStore re-homed behind the seam. One
//                 report = one RDMA WRITE of [checksum ‖ value] per slot
//                 copy; queries are §4 return-policy votes.
//
//   SketchBackend compact storage per "Compact Data Structures for Network
//                 Telemetry": the MR is a count-min sketch of 64-bit cells,
//                 and one report = `rows` RDMA FETCH_ADDs (one cell per
//                 row), so many switches merge into one network-wide sketch
//                 in place with zero collector CPU. Queries return point
//                 estimates; a heavy-hitter/top-k candidate tracker is
//                 maintained on the collector READ side (ingest never sees
//                 keys — the RNIC only adds integers — so candidates are
//                 recorded when estimate queries arrive, DTA's "query path
//                 is the only CPU" discipline).
//
// SketchBackend's cells are a count-min cell sheet (cell_sheet.hpp): its
// CellGeometry is the one the switch crafts the FETCH_ADDs with, and the
// backend-differential property in dartcheck diffs the MR byte-for-byte
// against a tally built from the reference addressing in src/check/.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/cell_sheet.hpp"
#include "core/config.hpp"
#include "core/query.hpp"
#include "core/store.hpp"

namespace dart::core {

enum class StoreBackendKind : std::uint8_t {
  kKv = 0,      // DartStore: N-way checksum KV array (the paper's §3.1)
  kSketch = 1,  // count-min cells merged in place via FETCH_ADD
};

[[nodiscard]] const char* to_string(StoreBackendKind kind) noexcept;

// Geometry + seeds of a sketch-backed collector region. Shared verbatim by
// the collector (MR layout) and the switch (FETCH_ADD crafting) — like
// DartConfig for the KV array.
struct SketchBackendConfig {
  std::uint32_t rows = 4;       // d — one FETCH_ADD per row per report
  std::uint64_t cols = 2048;    // w — cells per row
  std::uint64_t seed = 0xDA27'0000'0002ull;  // row-seed master (SplitMix64)
  // Read-side heavy-hitter candidate tracker capacity (collector memory,
  // not MR bytes — the tracker lives outside the RNIC-written region).
  std::uint32_t topk_capacity = 32;

  [[nodiscard]] constexpr std::uint64_t n_cells() const noexcept {
    return static_cast<std::uint64_t>(rows) * cols;
  }
  [[nodiscard]] constexpr std::uint64_t memory_bytes() const noexcept {
    return n_cells() * 8;  // host-endian u64 cells, the RNIC atomic unit
  }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return rows >= 1 && rows <= CellGeometry::kMaxRows && cols >= 1 &&
           topk_capacity >= 1;
  }

  // The count-min cell addressing: built once per backend or switch, since
  // it derives every row seed.
  [[nodiscard]] CellGeometry geometry() const {
    return CellGeometry::count_min(rows, cols, seed);
  }
};

// Backend selection handed to a Collector at bring-up.
struct StoreBackendConfig {
  StoreBackendKind kind = StoreBackendKind::kKv;
  SketchBackendConfig sketch{};  // used iff kind == kSketch

  // MR bytes the chosen backend needs under `dart` (KV geometry lives in
  // DartConfig; sketch geometry here).
  [[nodiscard]] constexpr std::uint64_t memory_bytes(
      const DartConfig& dart) const noexcept {
    return kind == StoreBackendKind::kKv ? dart.memory_bytes()
                                         : sketch.memory_bytes();
  }
  [[nodiscard]] constexpr bool valid(const DartConfig& dart) const noexcept {
    return kind == StoreBackendKind::kKv ? dart.valid() : sketch.valid();
  }
};

// One heavy-hitter answer: the key and its current sketch estimate.
struct HeavyHitter {
  std::vector<std::byte> key;
  std::uint64_t count = 0;
};

// The seam. Implementations are views over an MR byte region (external
// mode) or self-owning (simulation mode) via RegionBacking, like every
// other collector-side structure.
class StoreBackend {
 public:
  virtual ~StoreBackend() = default;

  [[nodiscard]] virtual StoreBackendKind kind() const noexcept = 0;

  // --- MR byte layout / switch-row geometry --------------------------------
  // `n_slots` × `slot_bytes` addressable units, `slot_vaddr(i) = base +
  // i*slot_bytes` on the switch side (RemoteStoreInfo's formula).
  [[nodiscard]] virtual std::uint64_t n_slots() const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t slot_bytes() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t memory_bytes() const noexcept = 0;
  [[nodiscard]] virtual std::span<std::byte> memory() noexcept = 0;
  [[nodiscard]] virtual std::span<const std::byte> memory() const noexcept = 0;

  // --- local apply path ----------------------------------------------------
  // Reference semantics of one telemetry report (key, value) — what the
  // switch's crafted frame(s) for that report do to the MR. KV: write all N
  // [checksum ‖ value] slots. Sketch: FETCH_ADD 1 into one cell per row
  // (a report is a count observation; the value bytes carry no per-key
  // storage a sketch could hold).
  virtual void apply_report(std::span<const std::byte> key,
                            std::span<const std::byte> value) = 0;

  // --- query-side read path ------------------------------------------------
  // KV: §4 return-policy vote. Sketch: point estimate, encoded as an 8-byte
  // little-endian value (kFound iff the estimate is nonzero).
  [[nodiscard]] virtual QueryResult resolve(std::span<const std::byte> key,
                                            ReturnPolicy policy) const = 0;

  // Zero the MR region and reset any read-side state (trackers, tallies).
  virtual void clear() = 0;
};

// DartStore re-homed behind the seam (the default backend).
class KvBackend final : public StoreBackend {
 public:
  // Self-owning (simulation) and external-MR modes, like DartStore.
  explicit KvBackend(const DartConfig& config) : store_(config) {}
  KvBackend(const DartConfig& config, std::span<std::byte> memory)
      : store_(config, memory) {}

  [[nodiscard]] StoreBackendKind kind() const noexcept override {
    return StoreBackendKind::kKv;
  }
  [[nodiscard]] std::uint64_t n_slots() const noexcept override {
    return store_.config().n_slots;
  }
  [[nodiscard]] std::uint32_t slot_bytes() const noexcept override {
    return store_.config().slot_bytes();
  }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept override {
    return store_.config().memory_bytes();
  }
  [[nodiscard]] std::span<std::byte> memory() noexcept override {
    return store_.memory();
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept override {
    return store_.memory();
  }

  void apply_report(std::span<const std::byte> key,
                    std::span<const std::byte> value) override {
    store_.write(key, value);
  }
  [[nodiscard]] QueryResult resolve(std::span<const std::byte> key,
                                    ReturnPolicy policy) const override;
  void clear() override { store_.clear(); }

  [[nodiscard]] DartStore& store() noexcept { return store_; }
  [[nodiscard]] const DartStore& store() const noexcept { return store_; }

 private:
  DartStore store_;
};

// Count-min cells in MR memory + a read-side heavy-hitter tracker.
class SketchBackend final : public StoreBackend {
 public:
  explicit SketchBackend(const SketchBackendConfig& config)
      : config_(config), cells_(config.geometry()) {}
  // External mode: `memory` must be exactly config.memory_bytes() long and
  // outlive the backend (a registered MR on a collector).
  SketchBackend(const SketchBackendConfig& config, std::span<std::byte> memory)
      : config_(config), cells_(config.geometry(), memory) {}

  [[nodiscard]] const SketchBackendConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] StoreBackendKind kind() const noexcept override {
    return StoreBackendKind::kSketch;
  }
  // One "slot" = one 8-byte cell, the FETCH_ADD unit.
  [[nodiscard]] std::uint64_t n_slots() const noexcept override {
    return config_.n_cells();
  }
  [[nodiscard]] std::uint32_t slot_bytes() const noexcept override { return 8; }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept override {
    return config_.memory_bytes();
  }
  [[nodiscard]] std::span<std::byte> memory() noexcept override {
    return cells_.memory();
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept override {
    return cells_.memory();
  }

  void apply_report(std::span<const std::byte> key,
                    std::span<const std::byte> /*value*/) override {
    add(key, 1);
  }
  [[nodiscard]] QueryResult resolve(std::span<const std::byte> key,
                                    ReturnPolicy policy) const override;
  void clear() override;

  // --- the cells (CellSheet: addressing, atomic adds, estimates) -----------
  [[nodiscard]] const CellGeometry& geometry() const noexcept {
    return cells_.geometry();
  }
  // Local FETCH_ADD reference: one atomic add per row.
  void add(std::span<const std::byte> key, std::uint64_t delta) {
    (void)cells_.fetch_add(key, delta);
  }
  [[nodiscard]] std::uint64_t estimate(
      std::span<const std::byte> key) const noexcept {
    return cells_.estimate(key);
  }

  // --- read-side heavy-hitter / top-k tracker ------------------------------
  //
  // Capacity-bounded candidate set fed by the query path (serve-side code
  // calls offer() for every estimated key). Counts are NOT cached: top_k()
  // re-estimates every candidate from the live cells, so answers reflect
  // all FETCH_ADDs that landed since the key was first offered.

  // Records `key` as a heavy-hitter candidate. At capacity, the candidate
  // with the smallest current estimate is evicted iff the newcomer's
  // estimate is strictly larger (counted in offers_evicted), else the
  // newcomer is dropped (offers_rejected).
  void offer(std::span<const std::byte> key);

  // Top k candidates by current estimate, descending; ties break toward
  // lexicographically smaller keys so answers are deterministic.
  [[nodiscard]] std::vector<HeavyHitter> top_k(std::size_t k) const;

  [[nodiscard]] std::size_t tracked_candidates() const noexcept {
    return candidates_.size();
  }
  [[nodiscard]] std::uint64_t offers() const noexcept { return offers_; }
  [[nodiscard]] std::uint64_t offers_evicted() const noexcept {
    return offers_evicted_;
  }
  [[nodiscard]] std::uint64_t offers_rejected() const noexcept {
    return offers_rejected_;
  }

 private:
  SketchBackendConfig config_;
  CellSheet cells_;
  std::vector<std::vector<std::byte>> candidates_;
  std::uint64_t offers_ = 0;
  std::uint64_t offers_evicted_ = 0;
  std::uint64_t offers_rejected_ = 0;
};

// Factory over external MR memory (`memory` must be exactly
// backend.memory_bytes(dart) long) — what Collector bring-up calls.
[[nodiscard]] std::unique_ptr<StoreBackend> make_backend(
    const DartConfig& dart, const StoreBackendConfig& backend,
    std::span<std::byte> memory);

// Self-owning factory for simulations and reference twins.
[[nodiscard]] std::unique_ptr<StoreBackend> make_backend(
    const DartConfig& dart, const StoreBackendConfig& backend);

}  // namespace dart::core
