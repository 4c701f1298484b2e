#include "rdma/roce.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/hash.hpp"

namespace dart::rdma {

// ---------------------------------------------------------------------------
// BTH
// ---------------------------------------------------------------------------

void Bth::serialize(BufWriter& w) const {
  w.u8(static_cast<std::uint8_t>(opcode));
  std::uint8_t flags = 0;
  if (solicited) flags |= 0x80;
  if (mig_req) flags |= 0x40;
  flags |= static_cast<std::uint8_t>((pad_count & 0x3u) << 4);
  // low nibble: transport header version (0)
  w.u8(flags);
  w.be16(pkey);
  w.be32(dest_qp & 0x00FF'FFFFu);  // top byte reserved (resv8a slot is byte 8)
  std::uint32_t psn_word = psn & 0x00FF'FFFFu;
  if (ack_req) psn_word |= 0x8000'0000u;
  w.be32(psn_word);
}

// ---------------------------------------------------------------------------
// RETH / AtomicETH
// ---------------------------------------------------------------------------

void Reth::serialize(BufWriter& w) const {
  w.be64(vaddr);
  w.be32(rkey);
  w.be32(dma_length);
}

void AtomicEth::serialize(BufWriter& w) const {
  w.be64(vaddr);
  w.be32(rkey);
  w.be64(swap_add);
  w.be64(compare);
}

// ---------------------------------------------------------------------------
// Request serialize
// ---------------------------------------------------------------------------

std::size_t serialize_write(BufWriter& w, const Bth& bth, const Reth& reth,
                            std::span<const std::byte> payload) {
  bth.serialize(w);
  reth.serialize(w);
  w.bytes(payload);
  const std::size_t icrc_off = w.size();
  w.zeros(kIcrcLen);  // iCRC slot, filled once the whole frame exists
  return icrc_off;
}

std::size_t serialize_atomic(BufWriter& w, const Bth& bth,
                             const AtomicEth& aeth) {
  bth.serialize(w);
  aeth.serialize(w);
  const std::size_t icrc_off = w.size();
  w.zeros(kIcrcLen);
  return icrc_off;
}

// ---------------------------------------------------------------------------
// iCRC
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLrhLen = 8;  // masked dummy LRH in front of the IP header

// Writes the iCRC's view of a frame's first `n` bytes from the IP header on
// into `image`, behind the kLrhLen dummy-LRH 0xFF bytes: IPv4 ToS, TTL and
// header checksum, the UDP checksum and the BTH resv8a byte set to 0xFF, and
// the IPv4 flags and fragment offset read as 0. `n` covers at least the IP
// and UDP headers and BTH bytes 0..7. The one place the masked bytes are
// named.
void icrc_masked_image(const std::byte* frame, std::size_t n,
                       std::byte* image) noexcept {
  std::memset(image, 0xFF, kLrhLen);
  std::byte* ip = image + kLrhLen;
  std::memcpy(ip, frame + net::kEthernetHeaderLen, n);
  ip[1] = std::byte{0xFF};            // ToS (DSCP/ECN)
  ip[6] = ip[7] = std::byte{0};       // flags + fragment offset
  ip[8] = std::byte{0xFF};            // TTL
  ip[10] = ip[11] = std::byte{0xFF};  // header checksum
  std::byte* udp = ip + net::kIpv4HeaderLen;
  udp[6] = udp[7] = std::byte{0xFF};              // UDP checksum
  udp[net::kUdpHeaderLen + 4] = std::byte{0xFF};  // BTH resv8a
}

// Frame bytes past the Ethernet header that the classifier's stack image
// holds: every report-sized frame fits, so its iCRC is one CRC stream.
constexpr std::size_t kImageBytes = 1536;

}  // namespace

Crc32 icrc_prefix_state(std::span<const std::byte> frame) noexcept {
  std::array<std::byte, kLrhLen + kIcrcVariantOffset - net::kEthernetHeaderLen>
      image;
  icrc_masked_image(frame.data(), image.size() - kLrhLen, image.data());
  Crc32 crc;
  crc.update(image);
  return crc;
}

// ---------------------------------------------------------------------------
// Wire classification
// ---------------------------------------------------------------------------

WireClass classify_wire_frame(std::span<const std::byte> frame,
                              bool check_icrc) noexcept {
  using V = WireClass::Verdict;
  constexpr std::size_t kEth = net::kEthernetHeaderLen;
  constexpr std::size_t kRoceOff = net::kUdpFrameHeaderLen;

  WireClass out;
  const auto udp_payload_len = net::udp_payload_length(frame);
  if (!udp_payload_len) return out;
  const std::size_t payload_len = *udp_payload_len;
  const std::byte* f = frame.data();
  out.udp_dst_port = load_be16(f + kEth + net::kIpv4HeaderLen + 2);
  out.udp_payload = frame.subspan(kRoceOff, payload_len);
  if (out.udp_dst_port != net::kRoceV2UdpPort) {
    out.verdict = V::kOtherPort;
    return out;
  }
  if (payload_len < kBthLen + kIcrcLen) {
    out.verdict = check_icrc ? V::kBadIcrc : V::kBadRequest;
    return out;
  }

  const std::size_t icrc_off = kRoceOff + payload_len - kIcrcLen;
  if (check_icrc) {
    // The masked image of the frame from the IP header to the iCRC slot,
    // CRC'd as one contiguous stream (long enough to engage the PCLMUL
    // folds) as far as the stack copy reaches; a longer frame streams the
    // rest straight from the wire. CRC streaming is associative over
    // concatenation, so this equals icrc_prefix_state resumed over the
    // variant bytes. The raw-state steps are the ones Crc32::update runs.
    const std::size_t covered = icrc_off - kEth;
    const std::size_t head = std::min(covered, kImageBytes);
    alignas(16) std::byte image[kLrhLen + kImageBytes];
    icrc_masked_image(f, head, image);
    std::uint32_t state = dart::detail::crc32_update_dispatch(
        0xFFFF'FFFFu, image, kLrhLen + head);
    if (head < covered) {
      state = dart::detail::crc32_update_dispatch(state, f + kEth + head,
                                                  covered - head);
    }
    std::uint32_t got;
    std::memcpy(&got, f + icrc_off, kIcrcLen);
    if (got != ~state) {
      out.verdict = V::kBadIcrc;
      return out;
    }
  }

  // The request, field by field at fixed offsets.
  const std::byte* bth = f + kRoceOff;
  const std::uint8_t op = std::to_integer<std::uint8_t>(bth[0]);
  const std::uint8_t flags = std::to_integer<std::uint8_t>(bth[1]);
  switch (op) {
    case static_cast<std::uint8_t>(Opcode::kRcRdmaWriteOnly):
    case static_cast<std::uint8_t>(Opcode::kRcCompareSwap):
    case static_cast<std::uint8_t>(Opcode::kRcFetchAdd):
    case static_cast<std::uint8_t>(Opcode::kUcRdmaWriteOnly):
      break;
    default:
      out.verdict = V::kBadRequest;
      return out;
  }
  if ((flags & 0x0F) != 0) {  // header version must be 0
    out.verdict = V::kBadRequest;
    return out;
  }
  RoceRequest& req = out.req;
  req.bth.opcode = static_cast<Opcode>(op);
  req.bth.solicited = (flags & 0x80) != 0;
  req.bth.mig_req = (flags & 0x40) != 0;
  req.bth.pad_count = (flags >> 4) & 0x3;
  req.bth.pkey = load_be16(bth + 2);
  req.bth.dest_qp = load_be32(bth + 4) & 0x00FF'FFFFu;
  const std::uint32_t psn_word = load_be32(bth + 8);
  req.bth.ack_req = (psn_word & 0x8000'0000u) != 0;
  req.bth.psn = psn_word & 0x00FF'FFFFu;

  const std::size_t roce_len = payload_len - kIcrcLen;
  if (is_write(req.bth.opcode)) {
    if (roce_len < kBthLen + kRethLen) {
      out.verdict = V::kBadRequest;
      return out;
    }
    Reth reth;
    reth.vaddr = load_be64(bth + kBthLen);
    reth.rkey = load_be32(bth + kBthLen + 8);
    reth.dma_length = load_be32(bth + kBthLen + 12);
    req.reth = reth;
    req.payload = frame.subspan(kRoceOff + kBthLen + kRethLen,
                                roce_len - kBthLen - kRethLen);
    if (req.payload.size() != reth.dma_length) {
      out.verdict = V::kBadRequest;
      return out;
    }
  } else {  // atomic: AtomicETH then nothing else before the iCRC
    if (roce_len != kBthLen + kAtomicEthLen) {
      out.verdict = V::kBadRequest;
      return out;
    }
    AtomicEth aeth;
    aeth.vaddr = load_be64(bth + kBthLen);
    aeth.rkey = load_be32(bth + kBthLen + 8);
    aeth.swap_add = load_be64(bth + kBthLen + 12);
    aeth.compare = load_be64(bth + kBthLen + 20);
    req.atomic_eth = aeth;
  }
  std::memcpy(&req.icrc, f + icrc_off, kIcrcLen);
  out.verdict = V::kOk;
  return out;
}

}  // namespace dart::rdma
