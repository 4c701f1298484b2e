// Collector — a telemetry collection server (§3).
//
// A collector is: a block of DRAM laid out as a DartStore, registered with
// its RNIC as an RDMA memory region so that switches can write reports into
// it, and a query service that resolves operator queries from that same
// memory. The collector's CPU appears *only* on the query path — ingest is
// entirely RNIC → memory, which is the paper's headline property.
//
// RemoteStoreInfo is the row a switch's collector lookup table stores per
// collector (§6: ~20 bytes of SRAM per collector): L2/L3 reachability plus
// the RDMA essentials (QPN, rkey, base vaddr) and the store geometry needed
// to turn a slot index into a remote address.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/primitives.hpp"
#include "core/query.hpp"
#include "core/store.hpp"
#include "core/store_backend.hpp"
#include "net/headers.hpp"
#include "rdma/rnic.hpp"

namespace dart::core {

struct RemoteStoreInfo {
  std::uint32_t collector_id = 0;
  net::MacAddr mac{};
  net::Ipv4Addr ip{};
  std::uint32_t qpn = 0;
  std::uint32_t rkey = 0;
  std::uint64_t base_vaddr = 0;
  std::uint64_t n_slots = 0;
  std::uint32_t slot_bytes = 0;
  // Storage backend behind this row: tells the switch which wire op family
  // a telemetry report becomes (kKv: slot WRITEs; kSketch: per-row
  // FETCH_ADDs, one "slot" = one 8-byte cell).
  StoreBackendKind backend = StoreBackendKind::kKv;

  [[nodiscard]] std::uint64_t slot_vaddr(std::uint64_t index) const noexcept {
    return base_vaddr + index * slot_bytes;
  }
};

struct CollectorEndpoint {
  net::MacAddr mac{};
  net::Ipv4Addr ip{};
};

class Collector {
 public:
  // Brings up the collector: allocates store memory for the chosen backend
  // (store_backend.hpp; default = the KV array), registers it with the RNIC
  // (remote-write + remote-atomic), and opens the report QP.
  Collector(const DartConfig& config, std::uint32_t collector_id,
            const CollectorEndpoint& endpoint,
            const StoreBackendConfig& backend = {});

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // --- reporting side ------------------------------------------------------
  [[nodiscard]] rdma::SimulatedRnic& rnic() noexcept { return *rnic_; }
  [[nodiscard]] const rdma::RnicCounters& ingest_counters() const noexcept {
    return rnic_->counters();
  }
  [[nodiscard]] RemoteStoreInfo remote_info() const noexcept { return info_; }

  // --- query side (the only CPU involvement) -------------------------------
  [[nodiscard]] QueryResult query(std::span<const std::byte> key,
                                  ReturnPolicy policy = ReturnPolicy::kPlurality) const {
    return backend_->resolve(key, policy);
  }

  // --- storage backend (store_backend.hpp) ---------------------------------
  [[nodiscard]] StoreBackendKind backend_kind() const noexcept {
    return backend_->kind();
  }
  [[nodiscard]] StoreBackend& backend() noexcept { return *backend_; }
  [[nodiscard]] const StoreBackend& backend() const noexcept {
    return *backend_;
  }
  // Sketch-backed collectors only (backend_kind() == kSketch).
  [[nodiscard]] SketchBackend& sketch() noexcept {
    assert(backend_->kind() == StoreBackendKind::kSketch);
    return static_cast<SketchBackend&>(*backend_);
  }
  [[nodiscard]] const SketchBackend& sketch() const noexcept {
    assert(backend_->kind() == StoreBackendKind::kSketch);
    return static_cast<const SketchBackend&>(*backend_);
  }

  // --- direct store access (simulation & tests; KV backend only) -----------
  [[nodiscard]] DartStore& store() noexcept {
    assert(backend_->kind() == StoreBackendKind::kKv);
    return static_cast<KvBackend&>(*backend_).store();
  }
  [[nodiscard]] const DartStore& store() const noexcept {
    assert(backend_->kind() == StoreBackendKind::kKv);
    return static_cast<const KvBackend&>(*backend_).store();
  }
  [[nodiscard]] const DartConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t id() const noexcept { return info_.collector_id; }

  // --- failover / recovery (docs/FAULTS.md) --------------------------------

  // Adopts the report stream of a dead peer: opens the peer's well-known
  // QPN on THIS collector's RNIC (same PD and rkey) so re-targeted switch
  // rows terminate on a dedicated QP with a fresh PSN window instead of
  // interleaving with this collector's own stream. Idempotent — re-adoption
  // reconnects the existing takeover QP.
  Status adopt_takeover_qp(std::uint32_t dead_collector_id);

  // Drain-and-reconnect of this collector's own report QP after an error
  // (rdma::QpState::kError): back to Ready at PSN 0, the fresh sequence the
  // switches' reset PSN registers will produce.
  void reconnect_report_qp() noexcept;

  // --- DTA translator primitives (primitives.hpp) --------------------------

  // Brings up the three primitive regions: each is its own MR on the same
  // PD/QP (counters additionally with remote-atomic access, the FETCH_ADD
  // target). Ingest into them stays RNIC → memory, exactly like the KV
  // store; only drain/read queries touch the CPU. Call at most once.
  Status enable_primitives(const DtaPrimitivesConfig& config);
  [[nodiscard]] bool primitives_enabled() const noexcept {
    return primitives_ != nullptr;
  }

  // Collector-side structures over the regions (enable_primitives first).
  [[nodiscard]] AppendRing& ring() noexcept { return *primitives_->ring; }
  [[nodiscard]] CellSheet& counters() noexcept {
    return *primitives_->counters;
  }
  [[nodiscard]] PostcardStore& postcards() noexcept {
    return *primitives_->postcards;
  }

  // Switch table rows for the primitive regions. For the ring, a "slot" is
  // one entry; for counters, one 8-byte cell; for postcards, one hop slot.
  [[nodiscard]] RemoteStoreInfo remote_ring_info() const noexcept {
    return primitives_->ring_info;
  }
  [[nodiscard]] RemoteStoreInfo remote_counter_info() const noexcept {
    return primitives_->counter_info;
  }
  [[nodiscard]] RemoteStoreInfo remote_postcard_info() const noexcept {
    return primitives_->postcard_info;
  }

  // Default QPN scheme: report QPs live at a fixed base + collector id.
  [[nodiscard]] static constexpr std::uint32_t qpn_for(std::uint32_t collector_id) noexcept {
    return 0x100u + collector_id;
  }
  static constexpr std::uint64_t kDefaultBaseVaddr = 0x0000'1000'0000'0000ull;
  // Primitive regions get disjoint fixed bases in the same sparse scheme.
  static constexpr std::uint64_t kRingBaseVaddr = 0x0000'2000'0000'0000ull;
  static constexpr std::uint64_t kCounterBaseVaddr = 0x0000'3000'0000'0000ull;
  static constexpr std::uint64_t kPostcardBaseVaddr = 0x0000'4000'0000'0000ull;

 private:
  struct PrimitiveRegions {
    DtaPrimitivesConfig config;
    std::vector<std::byte> ring_mem;
    std::vector<std::byte> counter_mem;
    std::vector<std::byte> postcard_mem;
    std::unique_ptr<AppendRing> ring;
    std::unique_ptr<CellSheet> counters;
    std::unique_ptr<PostcardStore> postcards;
    RemoteStoreInfo ring_info;
    RemoteStoreInfo counter_info;
    RemoteStoreInfo postcard_info;
  };

  DartConfig config_;
  std::vector<std::byte> memory_;
  std::unique_ptr<rdma::SimulatedRnic> rnic_;
  std::unique_ptr<StoreBackend> backend_;
  RemoteStoreInfo info_;
  rdma::PdHandle pd_{};
  std::unique_ptr<PrimitiveRegions> primitives_;
};

}  // namespace dart::core
