// DartSwitchPipeline — the switch component of DART (§6), modeled after the
// ~1K-line P4_16 Tofino program plus its Python control plane.
//
// Data plane, per telemetry report (the paper's egress pipeline):
//   1. an I2E mirror clone carrying (key, raw telemetry data) enters egress;
//   2. the native RNG picks n ∈ [0, N) — which of the key's N slots this
//      report fills (the RDMA standard allows one memory write per packet,
//      so redundancy comes from multiple reports, §3.1);
//   3. the hash engine maps (n, key) → collector id and memory address;
//   4. the collector lookup table (match-action, control-plane-populated)
//      turns the collector id into RoCEv2 essentials (MAC/IP/QPN/rkey/base);
//   5. a register array holds per-collector PSN counters; the pass
//      increments one;
//   6. the deparser emits UDP/4791 + BTH + RETH + [checksum ‖ value] + iCRC.
//
// Control plane: load_collector() rows and pipeline_config(), mirroring the
// 150 lines of Python. sram_bytes_per_collector() reproduces the paper's
// ~20 B/collector SRAM accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/collector_ring.hpp"
#include "core/config.hpp"
#include "core/report_crafter.hpp"
#include "net/headers.hpp"
#include "switchsim/externs.hpp"
#include "switchsim/registers.hpp"
#include "switchsim/tables.hpp"

namespace dart::switchsim {

// Compact action data of the collector lookup table. This—plus the 3-byte
// PSN register cell—is the entire per-collector switch state.
struct CollectorEntry {
  net::MacAddr mac{};
  std::uint32_t ip = 0;          // host order
  std::uint32_t qpn = 0;         // 24 bits used
  std::uint32_t rkey = 0;
  std::uint64_t base_vaddr = 0;
  std::uint64_t n_slots = 0;
  std::uint32_t slot_bytes = 0;
  // Which op family telemetry reports to this collector become (one extra
  // byte of action data): KV slot WRITEs, or per-row sketch FETCH_ADDs.
  core::StoreBackendKind backend = core::StoreBackendKind::kKv;
};

struct SwitchCounters {
  std::uint64_t telemetry_events = 0;  // on_telemetry() invocations
  std::uint64_t reports_emitted = 0;   // RoCEv2 frames deparsed
  std::uint64_t table_misses = 0;      // hashed collector id not loaded
  std::uint64_t retargets = 0;         // rows re-pointed at a backup
  std::uint64_t restores = 0;          // rows restored to the original owner
  // DTA translator primitives (one frame each; included in reports_emitted).
  std::uint64_t appends_emitted = 0;
  std::uint64_t increments_emitted = 0;
  std::uint64_t postcards_emitted = 0;
  // Sketch-backed collectors: FETCH_ADD frames emitted (rows per telemetry
  // event; included in reports_emitted).
  std::uint64_t sketch_increments_emitted = 0;
};

class DartSwitchPipeline {
 public:
  struct Config {
    core::DartConfig dart;            // deployment-wide DART parameters
    net::MacAddr mac{};               // this switch's report source MAC
    net::Ipv4Addr ip{};               // and source IP
    std::uint32_t max_collectors = 1024;  // PSN register array size
    std::uint64_t rng_seed = 1;
    // kStochastic: one report per event, random n (prototype behaviour).
    // kAllSlots: emit N reports per event, one per slot (the redundant
    // re-report pattern §3.1 describes for filling all N slots).
    core::WriteMode write_mode = core::WriteMode::kStochastic;
    // §7 SmartNIC deployment: emit ONE DTA-multiwrite frame per event that
    // fills all N slots (requires collectors with the extension enabled;
    // write_mode is ignored when set).
    bool use_dta_multiwrite = false;
    // Geometry/seeds of the DTA primitive regions (Append / Key-Increment /
    // Postcarding). Must match the collectors' enable_primitives() config;
    // used only once load_primitives() rows are installed.
    core::DtaPrimitivesConfig primitives{};
    // Geometry/seed of sketch-backed collectors (store_backend.hpp). Must
    // match the SketchBackendConfig those collectors were brought up with;
    // consulted only for rows whose backend is kSketch.
    core::SketchBackendConfig sketch{};
  };

  explicit DartSwitchPipeline(const Config& config);

  // --- control plane -------------------------------------------------------
  void load_collector(const core::RemoteStoreInfo& info);
  void unload_collector(std::uint32_t collector_id) {
    table_.remove(collector_id);
    egress_tpls_.erase(collector_id);
    primitive_tpls_.erase(collector_id);
    if (kv_selector_) kv_selector_->remove_member(collector_id);
    if (prim_selector_) prim_selector_->remove_member(collector_id);
  }
  void clear_collectors() {
    table_ = {};
    egress_tpls_.clear();
    primitive_tpls_.clear();
    if (kv_selector_) kv_selector_->set_members({});
    if (prim_selector_) prim_selector_->set_members({});
  }
  [[nodiscard]] std::size_t collectors_loaded() const noexcept {
    return table_.size();
  }

  // Installs a collector's DTA primitive region rows (the Append ring,
  // counter-cell array, and postcard group directory) plus their deparser
  // templates. All three rows must share one collector id. Independent of
  // load_collector: a deployment can run primitives-only. Fault coverage:
  // under kModulo the fault plane's retarget_collector covers only the KV
  // table (primitive rows keep pointing at the original owner); under kRing,
  // remove_member() retargets every plane — KV writes, sketch fan-out, and
  // the primitive rows — because selection itself excludes the dead member.
  void load_primitives(const core::RemoteStoreInfo& ring_row,
                       const core::RemoteStoreInfo& counter_row,
                       const core::RemoteStoreInfo& postcard_row);
  [[nodiscard]] std::size_t primitive_collectors_loaded() const noexcept {
    return primitive_tpls_.size();
  }

  // Failover control plane (docs/FAULTS.md): re-points the lookup-table row
  // for `dead_id` at the backup collector's RoCEv2 endpoint. The hash
  // mapping key→collector id is untouched (it is stateless and shared with
  // the query plane), so every report that hashes to the dead collector now
  // lands on the backup's store at the address the key would hash to there.
  // The dead row's PSN register resets to 0, matching the fresh PSN the
  // backup's reconnected QP expects (rdma::QueuePair::reconnect).
  void retarget_collector(std::uint32_t dead_id,
                          const core::RemoteStoreInfo& backup);

  // Undo: the recovered collector takes its row (and a fresh PSN) back.
  void restore_collector(const core::RemoteStoreInfo& info);

  // QP drain-and-reconnect support: zeroes the per-collector PSN register so
  // the next report starts the fresh PSN stream the reconnected QP expects
  // (rdma::QueuePair::reconnect). Row and templates are untouched.
  void reset_psn(std::uint32_t collector_id) { psn_regs_.write(collector_id, 0); }

  // --- ring-mode failover (CollectorSelection::kRing only) ------------------
  //
  // Drops/restores a member on BOTH selection planes (KV + primitives)
  // without touching the loaded row, so reports re-route to the survivors
  // the consistent-hash ring picks — minimal movement, all report kinds.
  // The row and templates stay loaded for the eventual failback. No-op
  // under kModulo (that policy fails over by aliasing the dead row via
  // retarget_collector instead).
  void remove_member(std::uint32_t collector_id) {
    if (kv_selector_ && kv_selector_->is_member(collector_id)) {
      kv_selector_->remove_member(collector_id);
    }
    if (prim_selector_ && prim_selector_->is_member(collector_id)) {
      prim_selector_->remove_member(collector_id);
    }
  }
  void add_member(std::uint32_t collector_id) {
    // Re-admit only planes where the row is actually loaded (membership
    // always stays a subset of the loaded rows).
    if (kv_selector_ && table_.lookup(collector_id)) {
      kv_selector_->add_member(collector_id);
    }
    if (prim_selector_ && primitive_tpls_.contains(collector_id)) {
      prim_selector_->add_member(collector_id);
    }
  }

  // The KV-plane selector (null unless the deployment runs kRing).
  [[nodiscard]] const core::CollectorSelector* kv_selector() const noexcept {
    return kv_selector_.get();
  }
  [[nodiscard]] const core::CollectorSelector* primitive_selector()
      const noexcept {
    return prim_selector_.get();
  }

  // --- data plane ----------------------------------------------------------

  // Processes one telemetry event (the mirror clone's extracted key+data).
  // Appends the deparsed report frame(s), ready for the wire, to `frames`;
  // a caller that reuses one vector allocates only the frames themselves.
  void on_telemetry(std::span<const std::byte> key,
                    std::span<const std::byte> value,
                    std::vector<std::vector<std::byte>>& frames);

  // The same, returning the frame(s).
  [[nodiscard]] std::vector<std::vector<std::byte>> on_telemetry(
      std::span<const std::byte> key, std::span<const std::byte> value);

  // One event of a batched ingress burst (see on_telemetry_batch).
  struct TelemetryEvent {
    std::span<const std::byte> key;
    std::span<const std::byte> value;
  };

  // Batched data plane: processes `events` in order and returns all emitted
  // frames. The collector-id hash for each chunk of 8-byte keys runs through
  // the batched hash engine (4 keys per AVX2 kernel step) instead of one
  // scalar XXH64 per event; frames, counters, and the per-collector PSN
  // streams are identical to calling on_telemetry per event.
  [[nodiscard]] std::vector<std::vector<std::byte>> on_telemetry_batch(
      std::span<const TelemetryEvent> events);

  // --- DTA primitive data plane --------------------------------------------
  //
  // One frame per event, or empty on a primitive-table miss. The key hashes
  // to a collector among the primitive rows loaded; PSNs come from the same
  // per-collector register array as on_telemetry.

  // Append: bumps this switch's per-collector tail register (the
  // switch-maintained tail pointer) and emits the WRITE for that sequence
  // number's ring slot.
  [[nodiscard]] std::vector<std::byte> on_append_event(
      std::span<const std::byte> key, std::span<const std::byte> value);

  // Key-Increment: FETCH_ADD of `delta` on the cell owning `key`.
  [[nodiscard]] std::vector<std::byte> on_increment_event(
      std::span<const std::byte> key, std::uint64_t delta);

  // Postcarding: hop `hop`'s INT metadata for `flow_key`'s slot group.
  [[nodiscard]] std::vector<std::byte> on_postcard_event(
      std::span<const std::byte> flow_key, std::uint32_t hop,
      std::span<const std::byte> value);

  // This switch's Append tail for a collector (entries emitted so far).
  [[nodiscard]] std::uint64_t append_tail_of(
      std::uint32_t collector_id) const noexcept {
    return append_tails_.read(collector_id);
  }

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const SwitchCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::uint32_t psn_of(std::uint32_t collector_id) const noexcept {
    return psn_regs_.read(collector_id);
  }

  // Per-collector switch SRAM: lookup-table entry + PSN register cell.
  [[nodiscard]] static constexpr std::size_t sram_bytes_per_collector() noexcept {
    // MAC(6) + IP(4) + QPN(3) + rkey(4) + base vaddr(6 used) + PSN(3) ≈ 26 B
    // of logical state; the paper rounds its Tofino layout to ~20 B. We
    // report the logical field bytes.
    return 6 + 4 + 3 + 4 + 6 + 3;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  // Deparser: precomputed frame templates per loaded collector, built by
  // the control plane alongside the lookup-table row — the software
  // analogue of a Tofino deparser emitting a fixed header template. Each
  // template carries its destination row (FrameTemplate::dst()). Kept in
  // sync with table_ by load/unload/clear, so every table hit has them.
  struct EgressTemplates {
    core::FrameTemplate write;
    core::FrameTemplate multiwrite;  // only valid() when use_dta_multiwrite
    core::FrameTemplate fetch_add;   // only valid() for sketch-backed rows
  };

  // The deparser templates of one collector's primitive region rows
  // (load_primitives).
  struct PrimitiveTemplates {
    core::FrameTemplate append;
    core::FrameTemplate increment;  // kFetchAdd against the counter region
    core::FrameTemplate postcard;
  };

  // Collector owning `key` among the loaded primitive rows, or nullptr on a
  // miss (counted). Shared head of the three primitive entry points.
  const PrimitiveTemplates* primitive_templates_of(
      std::span<const std::byte> key, std::uint32_t& collector_id);

  // Per-collector PSN counter: one register cell, read-modify-write.
  // Returns the PSN the next report to `collector_id` carries.
  std::uint32_t next_psn(std::uint32_t collector_id) noexcept {
    return psn_regs_.rmw(collector_id, [](std::uint32_t old) {
      return (old + 1) & 0x00FF'FFFFu;
    });
  }

  // Shared body of on_telemetry / on_telemetry_batch: emits the frame(s) for
  // one event into `frames`. `precomputed_id` < 0 means "hash the key here";
  // the batch path passes the id it already batch-hashed.
  void emit_telemetry(std::span<const std::byte> key,
                      std::span<const std::byte> value,
                      std::int64_t precomputed_id,
                      std::vector<std::vector<std::byte>>& frames);

  [[nodiscard]] bool ring_mode() const noexcept {
    return kv_selector_ != nullptr;
  }

  Config config_;
  // config_.sketch's count-min addressing, with its row seeds derived once.
  core::CellGeometry sketch_geometry_;
  HashEngine hash_engine_;
  // Selection-policy seam: allocated only under CollectorSelection::kRing
  // (kModulo keeps the legacy hash % table_.size() datapath byte-for-byte).
  // Membership mirrors the loaded rows of each plane — the KV/sketch lookup
  // table and the primitive region directory respectively — minus any member
  // dropped by the ring-mode fault plane (remove_member).
  std::unique_ptr<core::CollectorSelector> kv_selector_;
  std::unique_ptr<core::CollectorSelector> prim_selector_;
  RngExtern rng_;
  CrcExtern crc_;
  ExactTable<std::uint32_t, CollectorEntry> table_;
  RegisterArray<std::uint32_t> psn_regs_;
  // The Append tail pointers (§ Append): one 64-bit register per collector,
  // same resource class as the PSN counters. Value = entries emitted; the
  // next entry's 1-based sequence number is tail+1.
  RegisterArray<std::uint64_t> append_tails_;
  core::ReportCrafter crafter_;
  core::ReporterEndpoint self_;
  std::unordered_map<std::uint32_t, EgressTemplates> egress_tpls_;
  std::unordered_map<std::uint32_t, PrimitiveTemplates> primitive_tpls_;
  SwitchCounters counters_;
};

}  // namespace dart::switchsim
