#include "core/collector.hpp"

#include <cassert>

namespace dart::core {

Collector::Collector(const DartConfig& config, std::uint32_t collector_id,
                     const CollectorEndpoint& endpoint,
                     const StoreBackendConfig& backend)
    : config_(config),
      memory_(backend.memory_bytes(config), std::byte{0}),
      rnic_(std::make_unique<rdma::SimulatedRnic>(
          /*rkey_seed=*/0x5EED'0000ull + collector_id)) {
  assert(config.valid());
  assert(backend.valid(config));

  pd_ = rnic_->alloc_pd();
  const auto pd = pd_;
  auto mr = rnic_->register_mr(pd, memory_, kDefaultBaseVaddr,
                               rdma::Access::kRemoteWrite |
                                   rdma::Access::kRemoteAtomic);
  assert(mr.ok());

  // The report QP is shared by every switch in the deployment, and switches
  // keep *independent* per-collector PSN counters (§6) — they cannot
  // coordinate a single sequence. PSN-based admission would therefore drop
  // every switch's reports but the furthest-ahead one, so the report QP
  // ignores PSN ordering (reports are idempotent slot writes; loss needs no
  // recovery). PSNs still flow on the wire for per-switch loss accounting.
  const std::uint32_t qpn = qpn_for(collector_id);
  const auto qp_status = rnic_->create_qp(qpn, rdma::QpType::kRc, pd,
                                          rdma::PsnPolicy::kIgnore);
  assert(qp_status.ok());
  (void)qp_status;

  backend_ = make_backend(config, backend, std::span<std::byte>(memory_));

  info_.collector_id = collector_id;
  info_.mac = endpoint.mac;
  info_.ip = endpoint.ip;
  info_.qpn = qpn;
  info_.rkey = mr.value().rkey;
  info_.base_vaddr = kDefaultBaseVaddr;
  // Geometry of the switch row comes from the backend: the KV array's
  // [checksum ‖ value] slots, or the sketch's 8-byte FETCH_ADD cells.
  info_.n_slots = backend_->n_slots();
  info_.slot_bytes = backend_->slot_bytes();
  info_.backend = backend_->kind();
}

Status Collector::enable_primitives(const DtaPrimitivesConfig& config) {
  assert(config.valid());
  assert(primitives_ == nullptr);

  auto regions = std::make_unique<PrimitiveRegions>();
  regions->config = config;
  regions->ring_mem.assign(config.ring.memory_bytes(), std::byte{0});
  regions->counter_mem.assign(config.counters.memory_bytes(), std::byte{0});
  regions->postcard_mem.assign(config.postcards.memory_bytes(), std::byte{0});

  // One MR per region, same PD and report QP as the KV store. Only the
  // counter region needs remote-atomic: Append and Postcarding are plain
  // WRITEs, and withholding atomic access elsewhere keeps a misdirected
  // FETCH_ADD from silently corrupting ring or postcard bytes.
  auto ring_mr = rnic_->register_mr(pd_, regions->ring_mem, kRingBaseVaddr,
                                    rdma::Access::kRemoteWrite);
  if (!ring_mr.ok()) return ring_mr.error();
  auto counter_mr =
      rnic_->register_mr(pd_, regions->counter_mem, kCounterBaseVaddr,
                         rdma::Access::kRemoteWrite |
                             rdma::Access::kRemoteAtomic);
  if (!counter_mr.ok()) return counter_mr.error();
  auto postcard_mr =
      rnic_->register_mr(pd_, regions->postcard_mem, kPostcardBaseVaddr,
                         rdma::Access::kRemoteWrite);
  if (!postcard_mr.ok()) return postcard_mr.error();

  regions->ring = std::make_unique<AppendRing>(
      config.ring, std::span<std::byte>(regions->ring_mem));
  regions->counters = std::make_unique<CellSheet>(
      config.counters.geometry(), std::span<std::byte>(regions->counter_mem));
  regions->postcards = std::make_unique<PostcardStore>(
      config.postcards, std::span<std::byte>(regions->postcard_mem));

  RemoteStoreInfo row = info_;  // same endpoint, QPN, collector id
  row.base_vaddr = kRingBaseVaddr;
  row.rkey = ring_mr.value().rkey;
  row.n_slots = config.ring.n_entries;
  row.slot_bytes = config.ring.entry_bytes();
  regions->ring_info = row;

  row.base_vaddr = kCounterBaseVaddr;
  row.rkey = counter_mr.value().rkey;
  row.n_slots = config.counters.n_counters;
  row.slot_bytes = 8;
  regions->counter_info = row;

  row.base_vaddr = kPostcardBaseVaddr;
  row.rkey = postcard_mr.value().rkey;
  row.n_slots = config.postcards.n_slots();
  row.slot_bytes = config.postcards.slot_bytes();
  regions->postcard_info = row;

  primitives_ = std::move(regions);
  return {};
}

Status Collector::adopt_takeover_qp(std::uint32_t dead_collector_id) {
  const std::uint32_t qpn = qpn_for(dead_collector_id);
  if (rdma::QueuePair* existing = rnic_->qp(qpn)) {
    existing->reconnect(0);
    return {};
  }
  // Same policy rationale as the primary report QP: many switches share the
  // stream with independent PSN counters, so admission ignores PSN order.
  return rnic_->create_qp(qpn, rdma::QpType::kRc, pd_,
                          rdma::PsnPolicy::kIgnore);
}

void Collector::reconnect_report_qp() noexcept {
  if (rdma::QueuePair* qp = rnic_->qp(info_.qpn)) qp->reconnect(0);
}

}  // namespace dart::core
