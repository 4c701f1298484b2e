#include "core/report_crafter.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "common/bytes.hpp"
#include "rdma/multiwrite.hpp"
#include "rdma/roce.hpp"

namespace dart::core {

namespace {

// Absolute byte offsets of the variant fields inside a crafted frame. The
// layouts are fixed by the wire formats (net/headers, rdma/roce,
// rdma/multiwrite); the crafting property pins them against the reference
// serializers in src/check/reference_crafter.hpp.
constexpr std::size_t kRoceOff =
    net::kEthernetHeaderLen + net::kIpv4HeaderLen + net::kUdpHeaderLen;
constexpr std::size_t kPsnOff = kRoceOff + 9;  // BTH bytes 9..11, 24-bit BE
constexpr std::size_t kRethVaddrOff = kRoceOff + rdma::kBthLen;
constexpr std::size_t kWritePayloadOff = kRethVaddrOff + rdma::kRethLen;
constexpr std::size_t kAtomicVaddrOff = kRoceOff + rdma::kBthLen;
constexpr std::size_t kAtomicSwapOff = kAtomicVaddrOff + 8 + 4;
constexpr std::size_t kAtomicCompareOff = kAtomicSwapOff + 8;
constexpr std::size_t kDtaPsnOff = kRoceOff + 8;  // 32-bit BE
constexpr std::size_t kDtaDataOff = kRoceOff + rdma::kDtaHeaderLen;

void put_be24(std::byte* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::byte>((v >> 16) & 0xFF);
  p[1] = static_cast<std::byte>((v >> 8) & 0xFF);
  p[2] = static_cast<std::byte>(v & 0xFF);
}

std::vector<std::byte> udp_frame(const RemoteStoreInfo& dst,
                                 const ReporterEndpoint& src,
                                 std::uint16_t dst_port,
                                 std::span<const std::byte> payload) {
  net::UdpFrameSpec spec;
  spec.src_mac = src.mac;
  spec.dst_mac = dst.mac;
  spec.src_ip = src.ip;
  spec.dst_ip = dst.ip;
  spec.src_port = src.udp_src_port;
  spec.dst_port = dst_port;
  return net::build_udp_frame(spec, payload);
}

// Frame prototypes, one per wire shape: what the wire serializers emit for
// a (src, dst) pair with the PSN, addresses, operands and payload all zero.
// craft_*_into overwrites exactly those fields and the trailing CRC.

// RETH WRITE of `payload_bytes`: slot WRITE, Append and Postcard frames.
std::vector<std::byte> reth_write_prototype(const RemoteStoreInfo& dst,
                                            const ReporterEndpoint& src,
                                            std::uint32_t payload_bytes) {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcRdmaWriteOnly;
  bth.dest_qp = dst.qpn;
  rdma::Reth reth;
  reth.rkey = dst.rkey;
  reth.dma_length = payload_bytes;
  const std::vector<std::byte> payload(payload_bytes);
  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_write(w, bth, reth, payload);
  return udp_frame(dst, src, net::kRoceV2UdpPort, roce);
}

// FETCH_ADD or COMPARE_SWAP.
std::vector<std::byte> atomic_prototype(const RemoteStoreInfo& dst,
                                        const ReporterEndpoint& src,
                                        rdma::Opcode op) {
  rdma::Bth bth;
  bth.opcode = op;
  bth.dest_qp = dst.qpn;
  rdma::AtomicEth aeth;
  aeth.rkey = dst.rkey;
  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_atomic(w, bth, aeth);
  return udp_frame(dst, src, net::kRoceV2UdpPort, roce);
}

// §7 DTA multiwrite of one `slot_bytes` payload to `n_addresses` slots.
std::vector<std::byte> multiwrite_prototype(const RemoteStoreInfo& dst,
                                            const ReporterEndpoint& src,
                                            std::uint32_t n_addresses,
                                            std::uint32_t slot_bytes) {
  const std::vector<std::uint64_t> vaddrs(n_addresses);
  const std::vector<std::byte> payload(slot_bytes);
  return udp_frame(dst, src, rdma::kDtaUdpPort,
                   rdma::encode_multiwrite(dst.rkey, 0, vaddrs, payload));
}

}  // namespace

FrameTemplate::FrameTemplate(Kind kind, const RemoteStoreInfo& dst,
                             std::vector<std::byte> prototype)
    : kind_(kind), prototype_(std::move(prototype)), dst_(dst) {
  if (kind_ == Kind::kMultiwrite) {
    // The DTA trailer CRC covers the whole DTA payload, unmasked; the
    // cacheable prefix is magic/version/count/rkey — the 8 bytes before the
    // PSN, which by construction ends at the same absolute offset as the
    // RoCE variant region.
    crc_prefix_.update(
        std::span<const std::byte>(prototype_.data() + kRoceOff, 8));
  } else {
    crc_prefix_ = rdma::icrc_prefix_state(prototype_);
  }
}

FrameTemplate ReportCrafter::make_write_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src) const {
  return {FrameTemplate::Kind::kWrite, dst,
          reth_write_prototype(dst, src, config_.slot_bytes())};
}

FrameTemplate ReportCrafter::make_atomic_template(const RemoteStoreInfo& dst,
                                                  const ReporterEndpoint& src,
                                                  rdma::Opcode op) const {
  if (op == rdma::Opcode::kRcFetchAdd) {
    return {FrameTemplate::Kind::kFetchAdd, dst,
            atomic_prototype(dst, src, op)};
  }
  if (op == rdma::Opcode::kRcCompareSwap) {
    return {FrameTemplate::Kind::kCompareSwap, dst,
            atomic_prototype(dst, src, op)};
  }
  return {};
}

FrameTemplate ReportCrafter::make_multiwrite_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src) const {
  return {FrameTemplate::Kind::kMultiwrite, dst,
          multiwrite_prototype(dst, src, config_.n_addresses,
                               config_.slot_bytes())};
}

FrameTemplate ReportCrafter::make_append_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    const AppendRingConfig& ring) const {
  assert(dst.slot_bytes == ring.entry_bytes());
  return {FrameTemplate::Kind::kAppend, dst,
          reth_write_prototype(dst, src, ring.entry_bytes())};
}

FrameTemplate ReportCrafter::make_postcard_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    const PostcardConfig& postcards) const {
  assert(dst.slot_bytes == postcards.slot_bytes());
  return {FrameTemplate::Kind::kPostcard, dst,
          reth_write_prototype(dst, src, postcards.slot_bytes())};
}

std::size_t ReportCrafter::seal_icrc(const FrameTemplate& tpl,
                                     std::span<std::byte> out) {
  const std::size_t len = tpl.prototype_.size();
  const std::size_t icrc_off = len - rdma::kIcrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(
      out.data() + rdma::kIcrcVariantOffset,
      icrc_off - rdma::kIcrcVariantOffset));
  const std::uint32_t icrc = crc.value();
  std::memcpy(out.data() + icrc_off, &icrc, rdma::kIcrcLen);
  return len;
}

std::size_t ReportCrafter::patch_reth_write(const FrameTemplate& tpl,
                                            std::uint64_t vaddr,
                                            std::uint32_t psn,
                                            std::uint64_t tag,
                                            std::uint32_t tag_bytes,
                                            std::span<const std::byte> value,
                                            std::span<std::byte> out) {
  std::memcpy(out.data(), tpl.prototype_.data(), tpl.prototype_.size());
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  store_be64(out.data() + kRethVaddrOff, vaddr);
  std::byte* p = out.data() + kWritePayloadOff;
  for (std::uint32_t i = 0; i < tag_bytes; ++i) {
    *p++ = static_cast<std::byte>((tag >> (8 * i)) & 0xFF);
  }
  std::memcpy(p, value.data(), value.size());
  return seal_icrc(tpl, out);
}

std::size_t ReportCrafter::craft_write_into(const FrameTemplate& tpl,
                                            std::span<const std::byte> key,
                                            std::span<const std::byte> value,
                                            std::uint32_t n, std::uint32_t psn,
                                            std::span<std::byte> out) const {
  if (!tpl.fits(FrameTemplate::Kind::kWrite, out.size())) return 0;
  assert(value.size() == config_.value_bytes);
  return patch_reth_write(tpl, slot_vaddr(tpl.dst_, key, n), psn,
                          hashes_.checksum_of(key, config_.checksum_bits),
                          config_.checksum_bytes(), value, out);
}

std::size_t ReportCrafter::craft_write_into_at(const FrameTemplate& tpl,
                                               std::span<const std::byte> key,
                                               std::span<const std::byte> value,
                                               std::uint64_t slot_addr,
                                               std::uint32_t psn,
                                               std::span<std::byte> out) const {
  if (!tpl.fits(FrameTemplate::Kind::kWrite, out.size())) return 0;
  assert(value.size() == config_.value_bytes);
  return patch_reth_write(tpl, tpl.dst_.slot_vaddr(slot_addr), psn,
                          hashes_.checksum_of(key, config_.checksum_bits),
                          config_.checksum_bytes(), value, out);
}

std::size_t ReportCrafter::craft_write_into_n(const FrameTemplate& tpl,
                                              std::span<const WriteOp> ops,
                                              std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kWrite) return 0;
  const std::size_t len = tpl.prototype_.size();
  if (out.size() < len * ops.size()) return 0;

  constexpr std::size_t kLanes = 64;
  std::array<std::uint64_t, kLanes> key_lanes;
  std::array<std::uint32_t, kLanes> ns;
  std::array<std::uint64_t, kLanes> addrs;
  std::size_t done = 0;
  while (done < ops.size()) {
    const std::size_t m = std::min(kLanes, ops.size() - done);
    // Batch-hash the chunk's slot addresses; 8-byte keys (the telemetry key
    // shape) take the interleaved AVX2 kernel, anything else hashes per op.
    bool keys8 = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (ops[done + i].key.size() != 8) {
        keys8 = false;
        break;
      }
    }
    if (keys8) {
      for (std::size_t i = 0; i < m; ++i) {
        std::memcpy(&key_lanes[i], ops[done + i].key.data(), 8);
        ns[i] = ops[done + i].n;
      }
      hashes_.address_of_batch(
          reinterpret_cast<const std::byte*>(key_lanes.data()), 8, 8,
          std::span<const std::uint32_t>(ns.data(), m), tpl.dst_.n_slots,
          addrs.data());
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        addrs[i] = hashes_.address_of(ops[done + i].key, ops[done + i].n,
                                      tpl.dst_.n_slots);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      const WriteOp& op = ops[done + i];
      assert(op.value.size() == config_.value_bytes);
      patch_reth_write(tpl, tpl.dst_.slot_vaddr(addrs[i]), op.psn,
                       hashes_.checksum_of(op.key, config_.checksum_bits),
                       config_.checksum_bytes(), op.value,
                       out.subspan((done + i) * len, len));
    }
    done += m;
  }
  return ops.size();
}

std::size_t ReportCrafter::craft_fetch_add_into(const FrameTemplate& tpl,
                                                std::uint64_t vaddr,
                                                std::uint64_t addend,
                                                std::uint32_t psn,
                                                std::span<std::byte> out) const {
  if (!tpl.fits(FrameTemplate::Kind::kFetchAdd, out.size())) return 0;
  std::memcpy(out.data(), tpl.prototype_.data(), tpl.prototype_.size());
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  store_be64(out.data() + kAtomicVaddrOff, vaddr);
  store_be64(out.data() + kAtomicSwapOff, addend);
  return seal_icrc(tpl, out);
}

std::size_t ReportCrafter::craft_compare_swap_into(
    const FrameTemplate& tpl, std::uint64_t vaddr, std::uint64_t compare,
    std::uint64_t swap, std::uint32_t psn, std::span<std::byte> out) const {
  if (!tpl.fits(FrameTemplate::Kind::kCompareSwap, out.size())) return 0;
  std::memcpy(out.data(), tpl.prototype_.data(), tpl.prototype_.size());
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  store_be64(out.data() + kAtomicVaddrOff, vaddr);
  store_be64(out.data() + kAtomicSwapOff, swap);
  store_be64(out.data() + kAtomicCompareOff, compare);
  return seal_icrc(tpl, out);
}

std::size_t ReportCrafter::craft_multiwrite_into(
    const FrameTemplate& tpl, std::span<const std::byte> key,
    std::span<const std::byte> value, std::uint32_t psn,
    std::span<std::byte> out) const {
  if (!tpl.fits(FrameTemplate::Kind::kMultiwrite, out.size())) return 0;
  assert(value.size() == config_.value_bytes);
  const std::size_t len = tpl.prototype_.size();
  std::memcpy(out.data(), tpl.prototype_.data(), len);
  store_be32(out.data() + kDtaPsnOff, psn);
  std::byte* p = out.data() + kDtaDataOff;
  const std::uint32_t csum = hashes_.checksum_of(key, config_.checksum_bits);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    *p++ = static_cast<std::byte>((csum >> (8 * i)) & 0xFF);
  }
  std::memcpy(p, value.data(), value.size());
  p += value.size();
  std::array<std::uint64_t, 16> addrs;
  if (config_.n_addresses <= addrs.size()) {
    hashes_.addresses_of(key, tpl.dst_.n_slots,
                         std::span(addrs.data(), config_.n_addresses));
    for (std::uint32_t n = 0; n < config_.n_addresses; ++n) {
      store_be64(p + 8 * n, tpl.dst_.slot_vaddr(addrs[n]));
    }
  } else {
    for (std::uint32_t n = 0; n < config_.n_addresses; ++n) {
      store_be64(p + 8 * n, slot_vaddr(tpl.dst_, key, n));
    }
  }
  const std::size_t crc_off = len - rdma::kDtaCrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(out.data() + kDtaPsnOff,
                                        crc_off - kDtaPsnOff));
  const std::uint32_t v = crc.value();
  out[crc_off] = static_cast<std::byte>(v & 0xFF);
  out[crc_off + 1] = static_cast<std::byte>((v >> 8) & 0xFF);
  out[crc_off + 2] = static_cast<std::byte>((v >> 16) & 0xFF);
  out[crc_off + 3] = static_cast<std::byte>((v >> 24) & 0xFF);
  return len;
}

std::size_t ReportCrafter::craft_append_into(const FrameTemplate& tpl,
                                             const AppendRingConfig& ring,
                                             std::uint64_t seq,
                                             std::span<const std::byte> value,
                                             std::uint32_t psn,
                                             std::span<std::byte> out) const {
  if (!tpl.fits(FrameTemplate::Kind::kAppend, out.size())) return 0;
  assert(seq != 0);
  assert(value.size() == ring.value_bytes);
  return patch_reth_write(tpl, tpl.dst_.slot_vaddr(ring.slot_of(seq)), psn,
                          seq, 8, value, out);
}

std::size_t ReportCrafter::craft_key_increment_into(
    const FrameTemplate& tpl, const CounterArrayConfig& counters,
    std::span<const std::byte> key, std::uint64_t delta, std::uint32_t psn,
    std::span<std::byte> out) const {
  return craft_fetch_add_into(
      tpl, tpl.dst_.slot_vaddr(counters.index_of(key)), delta, psn, out);
}

std::size_t ReportCrafter::craft_sketch_increment_into(
    const FrameTemplate& tpl, const CellGeometry& sketch,
    std::span<const std::byte> key, std::uint32_t row, std::uint64_t delta,
    std::uint32_t psn, std::span<std::byte> out) const {
  assert(row < sketch.rows());
  return craft_fetch_add_into(
      tpl, tpl.dst_.slot_vaddr(sketch.cell_of(key, row)), delta, psn, out);
}

std::size_t ReportCrafter::craft_postcard_into(
    const FrameTemplate& tpl, const PostcardConfig& postcards,
    std::span<const std::byte> flow_key, std::uint32_t hop,
    std::span<const std::byte> value, std::uint32_t psn,
    std::span<std::byte> out) const {
  if (!tpl.fits(FrameTemplate::Kind::kPostcard, out.size())) return 0;
  assert(hop < postcards.max_hops);
  assert(value.size() == postcards.value_bytes);
  const std::uint64_t index =
      postcards.slot_index(postcards.group_of(flow_key), hop);
  return patch_reth_write(tpl, tpl.dst_.slot_vaddr(index), psn,
                          postcards.checksum_of(flow_key),
                          postcards.checksum_bytes(), value, out);
}

}  // namespace dart::core
