#include "core/epoch_rotation.hpp"

#include <cassert>

namespace dart::core {

RotatingCollector::RotatingCollector(const DartConfig& config,
                                     std::uint32_t collector_id,
                                     const CollectorEndpoint& endpoint)
    : config_(config), collector_id_(collector_id), endpoint_(endpoint),
      rnic_(0x207A7E00ull + collector_id) {
  assert(config.valid());
  const auto pd = rnic_.alloc_pd();
  const auto qp = rnic_.create_qp(Collector::qpn_for(collector_id),
                                  rdma::QpType::kRc, pd,
                                  rdma::PsnPolicy::kIgnore);
  assert(qp.ok());
  (void)qp;

  for (std::uint32_t r = 0; r < 2; ++r) {
    Region& region = regions_[r];
    region.memory.assign(config.memory_bytes(), std::byte{0});
    // Disjoint vaddr ranges so both MRs coexist on the RNIC.
    region.base_vaddr =
        Collector::kDefaultBaseVaddr + r * (config.memory_bytes() + (1u << 20));
    auto mr = rnic_.register_mr(pd, region.memory, region.base_vaddr,
                                rdma::Access::kRemoteWrite |
                                    rdma::Access::kRemoteAtomic);
    assert(mr.ok());
    region.rkey = mr.value().rkey;
    region.store = std::make_unique<DartStore>(
        config, std::span<std::byte>(region.memory));
  }
}

RemoteStoreInfo RotatingCollector::info_for(const Region& region) const noexcept {
  RemoteStoreInfo info;
  info.collector_id = collector_id_;
  info.mac = endpoint_.mac;
  info.ip = endpoint_.ip;
  info.qpn = Collector::qpn_for(collector_id_);
  info.rkey = region.rkey;
  info.base_vaddr = region.base_vaddr;
  info.n_slots = config_.n_slots;
  info.slot_bytes = config_.slot_bytes();
  return info;
}

RemoteStoreInfo RotatingCollector::active_info() const noexcept {
  // Seqlock read: if a flip lands mid-read we retry, so the returned row is
  // always a region that was active for one consistent generation. The body
  // only touches atomics, loaded with acquire, and per-region fields frozen
  // at construction.
  return seq_read(seq_, [&] {
    return info_for(regions_[active_.load(std::memory_order_acquire)]);
  });
}

RemoteStoreInfo RotatingCollector::standby_info() const noexcept {
  return seq_read(seq_, [&] {
    return info_for(regions_[1 - active_.load(std::memory_order_acquire)]);
  });
}

std::pair<std::uint64_t, std::uint32_t> RotatingCollector::epoch_snapshot()
    const noexcept {
  return seq_read(seq_, [&] {
    return std::pair{epoch_.load(std::memory_order_acquire),
                     active_.load(std::memory_order_acquire)};
  });
}

QueryResult RotatingCollector::query(std::span<const std::byte> key,
                                     ReturnPolicy policy) const {
  // Pin the region choice under the seqlock; the resolve itself reads slot
  // memory, which callers must not overlap with ingest into that region
  // (query after drain — see ingest_pipeline.hpp). A flip between the pin
  // and the resolve is benign: the old region stays registered and readable
  // through the grace period.
  const std::uint32_t region =
      seq_read(seq_, [&] { return active_.load(std::memory_order_acquire); });
  return QueryEngine(*regions_[region].store).resolve(key, policy);
}

QueryResult RotatingCollector::query_standby(std::span<const std::byte> key,
                                             ReturnPolicy policy) const {
  const std::uint32_t region =
      seq_read(seq_, [&] { return active_.load(std::memory_order_acquire); });
  return QueryEngine(*regions_[1 - region].store).resolve(key, policy);
}

void RotatingCollector::flip() {
  // Release stores under the seqlock: a reader whose acquire load sees one
  // of them also sees the odd generation and retries (common/seqlock.hpp).
  seq_.write_begin();
  active_.store(1 - active_.load(std::memory_order_relaxed),
                std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  seq_.write_end();
}

Result<std::uint64_t> RotatingCollector::seal_previous(const std::string& path) {
  Region& previous =
      regions_[1 - active_.load(std::memory_order_acquire)];
  auto written = write_epoch_archive(
      path, epoch_.load(std::memory_order_acquire) - 1, *previous.store);
  if (!written.ok()) return written;
  previous.store->clear();
  return written;
}

}  // namespace dart::core
