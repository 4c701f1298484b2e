#include "check/reference_crafter.hpp"

#include <cassert>

#include "check/reference_roce.hpp"
#include "common/bytes.hpp"
#include "common/random.hpp"
#include "net/headers.hpp"
#include "rdma/multiwrite.hpp"
#include "rdma/roce.hpp"

namespace dart::check {

std::uint64_t reference_counter_cell(std::span<const std::byte> key,
                                     std::uint64_t seed, std::uint64_t n) {
  return xxhash64(key, seed) % n;
}

std::uint64_t reference_sketch_cell(std::span<const std::byte> key,
                                    std::uint64_t seed, std::uint32_t row,
                                    std::uint64_t cols) {
  SplitMix64 sm(seed);
  std::uint64_t row_seed = sm.next();
  for (std::uint32_t i = 0; i < row; ++i) row_seed = sm.next();
  return static_cast<std::uint64_t>(row) * cols +
         xxhash64(key, row_seed) % cols;
}

std::vector<std::byte> ReferenceCrafter::craft_write(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    std::span<const std::byte> key, std::span<const std::byte> value,
    std::uint32_t n, std::uint32_t psn) const {
  assert(value.size() == config_.value_bytes);

  // Slot payload: checksum ‖ value — must match DartStore::write_raw.
  std::vector<std::byte> payload;
  payload.reserve(config_.slot_bytes());
  const std::uint32_t csum = hashes_.checksum_of(key, config_.checksum_bits);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    payload.push_back(static_cast<std::byte>((csum >> (8 * i)) & 0xFF));
  }
  payload.insert(payload.end(), value.begin(), value.end());

  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcRdmaWriteOnly;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::Reth reth;
  reth.vaddr = slot_vaddr(dst, key, n);
  reth.rkey = dst.rkey;
  reth.dma_length = static_cast<std::uint32_t>(payload.size());

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_write(w, bth, reth, payload);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReferenceCrafter::craft_fetch_add(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    std::uint64_t vaddr, std::uint64_t addend, std::uint32_t psn) const {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcFetchAdd;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::AtomicEth aeth;
  aeth.vaddr = vaddr;
  aeth.rkey = dst.rkey;
  aeth.swap_add = addend;

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_atomic(w, bth, aeth);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReferenceCrafter::craft_compare_swap(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    std::uint64_t vaddr, std::uint64_t compare, std::uint64_t swap,
    std::uint32_t psn) const {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcCompareSwap;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::AtomicEth aeth;
  aeth.vaddr = vaddr;
  aeth.rkey = dst.rkey;
  aeth.swap_add = swap;
  aeth.compare = compare;

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_atomic(w, bth, aeth);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReferenceCrafter::craft_multiwrite(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    std::span<const std::byte> key, std::span<const std::byte> value,
    std::uint32_t psn) const {
  assert(value.size() == config_.value_bytes);

  std::vector<std::byte> payload;
  payload.reserve(config_.slot_bytes());
  const std::uint32_t csum = hashes_.checksum_of(key, config_.checksum_bits);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    payload.push_back(static_cast<std::byte>((csum >> (8 * i)) & 0xFF));
  }
  payload.insert(payload.end(), value.begin(), value.end());

  // All N coded addresses in one batched hash pass.
  std::vector<std::uint64_t> vaddrs(config_.n_addresses);
  hashes_.addresses_of(key, dst.n_slots, vaddrs);
  for (auto& a : vaddrs) a = dst.slot_vaddr(a);
  const auto dta = rdma::encode_multiwrite(dst.rkey, psn, vaddrs, payload);

  net::UdpFrameSpec spec;
  spec.src_mac = src.mac;
  spec.dst_mac = dst.mac;
  spec.src_ip = src.ip;
  spec.dst_ip = dst.ip;
  spec.src_port = src.udp_src_port;
  spec.dst_port = rdma::kDtaUdpPort;
  return net::build_udp_frame(spec, dta);
}

std::vector<std::byte> ReferenceCrafter::craft_raw_write(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    std::uint64_t vaddr, std::span<const std::byte> payload,
    std::uint32_t psn) const {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcRdmaWriteOnly;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::Reth reth;
  reth.vaddr = vaddr;
  reth.rkey = dst.rkey;
  reth.dma_length = static_cast<std::uint32_t>(payload.size());

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_write(w, bth, reth, payload);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReferenceCrafter::craft_append(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    const core::AppendRingConfig& ring, std::uint64_t seq,
    std::span<const std::byte> value, std::uint32_t psn) const {
  assert(seq != 0);
  assert(value.size() == ring.value_bytes);
  assert(dst.slot_bytes == ring.entry_bytes());
  std::vector<std::byte> payload;
  payload.reserve(ring.entry_bytes());
  core::AppendRing::encode_entry(seq, value, payload);
  return craft_raw_write(dst, src, dst.slot_vaddr(ring.slot_of(seq)), payload,
                         psn);
}

std::vector<std::byte> ReferenceCrafter::craft_key_increment(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    const core::CounterArrayConfig& counters, std::span<const std::byte> key,
    std::uint64_t delta, std::uint32_t psn) const {
  assert(dst.slot_bytes == 8);
  const std::uint64_t cell =
      reference_counter_cell(key, counters.seed, counters.n_counters);
  return craft_fetch_add(dst, src, dst.slot_vaddr(cell), delta, psn);
}

std::vector<std::byte> ReferenceCrafter::craft_sketch_increment(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    const core::SketchBackendConfig& sketch, std::span<const std::byte> key,
    std::uint32_t row, std::uint64_t delta, std::uint32_t psn) const {
  assert(dst.backend == core::StoreBackendKind::kSketch);
  assert(dst.slot_bytes == 8);
  assert(row < sketch.rows);
  const std::uint64_t cell =
      reference_sketch_cell(key, sketch.seed, row, sketch.cols);
  return craft_fetch_add(dst, src, dst.slot_vaddr(cell), delta, psn);
}

std::vector<std::byte> ReferenceCrafter::craft_postcard(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    const core::PostcardConfig& postcards, std::span<const std::byte> flow_key,
    std::uint32_t hop, std::span<const std::byte> value,
    std::uint32_t psn) const {
  assert(hop < postcards.max_hops);
  assert(value.size() == postcards.value_bytes);
  assert(dst.slot_bytes == postcards.slot_bytes());
  std::vector<std::byte> payload;
  payload.reserve(postcards.slot_bytes());
  core::PostcardStore::encode_hop_payload(postcards, flow_key, value, payload);
  const std::uint64_t index =
      postcards.slot_index(postcards.group_of(flow_key), hop);
  return craft_raw_write(dst, src, dst.slot_vaddr(index), payload, psn);
}

std::vector<std::byte> ReferenceCrafter::wrap_frame(
    const core::RemoteStoreInfo& dst, const core::ReporterEndpoint& src,
    std::span<const std::byte> roce_payload) const {
  net::UdpFrameSpec spec;
  spec.src_mac = src.mac;
  spec.dst_mac = dst.mac;
  spec.src_ip = src.ip;
  spec.dst_ip = dst.ip;
  spec.src_port = src.udp_src_port;
  spec.dst_port = net::kRoceV2UdpPort;

  auto frame = net::build_udp_frame(spec, roce_payload);
  const bool ok = reference_finalize_frame_icrc(frame);
  assert(ok);
  (void)ok;
  return frame;
}

}  // namespace dart::check
