#include "rdma/roce.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <new>
#include <type_traits>

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

// The masked head every iCRC-checked frame carries: dummy LRH, IPv4, UDP and
// BTH, three 16-byte CRC blocks.
constexpr std::size_t kIcrcHeadLen =
    kLrhLen + net::kIpv4HeaderLen + net::kUdpHeaderLen + kBthLen;

// Writes the iCRC's view of a frame's first `n` bytes from the IP header on
// into `image`, behind the kLrhLen dummy-LRH 0xFF bytes: IPv4 ToS, TTL and
// header checksum, the UDP checksum and the BTH resv8a byte set to 0xFF, and
// the IPv4 flags and fragment offset read as 0. `n` covers at least the IP
// and UDP headers and BTH bytes 0..7. The one place the masked bytes are
// named.
constexpr void icrc_masked_image(const std::byte* frame, std::size_t n,
                                 std::byte* image) noexcept {
  std::fill_n(image, kLrhLen, std::byte{0xFF});
  std::byte* ip = image + kLrhLen;
  std::copy_n(frame + net::kEthernetHeaderLen, n, ip);
  ip[1] = std::byte{0xFF};            // ToS (DSCP/ECN)
  ip[6] = ip[7] = std::byte{0};       // flags + fragment offset
  ip[8] = std::byte{0xFF};            // TTL
  ip[10] = ip[11] = std::byte{0xFF};  // header checksum
  std::byte* udp = ip + net::kIpv4HeaderLen;
  udp[6] = udp[7] = std::byte{0xFF};              // UDP checksum
  udp[net::kUdpHeaderLen + 4] = std::byte{0xFF};  // BTH resv8a
}

// The masked head as masks over the kIcrcHeadLen frame bytes that start
// kLrhLen before the IP header: image byte i is (raw[i] & keep[i]) |
// force[i]. Derived from icrc_masked_image at compile time, so the
// classifier builds the image in whole 16-byte blocks (which the CRC
// kernel's block loads then read back at once) with no masked byte named
// twice.
struct HeadMask {
  std::array<std::byte, kIcrcHeadLen> keep{};
  std::array<std::byte, kIcrcHeadLen> force{};
};

constexpr HeadMask make_head_mask() noexcept {
  std::array<std::byte, net::kEthernetHeaderLen + kIcrcHeadLen> ones{};
  std::array<std::byte, net::kEthernetHeaderLen + kIcrcHeadLen> zeros{};
  ones.fill(std::byte{0xFF});
  HeadMask m;
  icrc_masked_image(ones.data(), kIcrcHeadLen - kLrhLen, m.keep.data());
  icrc_masked_image(zeros.data(), kIcrcHeadLen - kLrhLen, m.force.data());
  return m;
}

constexpr HeadMask kHeadMask = make_head_mask();

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

static_assert(std::is_trivially_copyable_v<WireClass>,
              "classify_wire_frame results are built in place and copied "
              "as plain bytes");

WireClass classify_wire_frame(std::span<const std::byte> frame,
                              bool check_icrc) noexcept {
  using V = WireClass::Verdict;
  constexpr std::size_t kEth = net::kEthernetHeaderLen;
  constexpr std::size_t kRoceOff = net::kUdpFrameHeaderLen;

  WireClass out;
  const auto udp_payload_len = net::udp_payload_length(frame);
  if (!udp_payload_len) {
    out.verdict = V::kNotUdp;
    return out;
  }
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

  const std::byte* bth = f + kRoceOff;
  const std::size_t icrc_off = kRoceOff + payload_len - kIcrcLen;
  if (check_icrc) {
    // The masked head from a fixed stack image, then the bytes from the end
    // of the BTH to the iCRC slot straight from the frame. CRC streaming is
    // associative over concatenation, so this equals icrc_prefix_state
    // resumed over the variant bytes. The raw-state steps are the ones
    // Crc32::update runs.
    alignas(16) std::byte head[kIcrcHeadLen];
    const std::byte* raw = f + kEth - kLrhLen;
    for (std::size_t i = 0; i < kIcrcHeadLen; ++i) {
      head[i] = (raw[i] & kHeadMask.keep[i]) | kHeadMask.force[i];
    }
    std::uint32_t state =
        dart::detail::crc32_update_dispatch(0xFFFF'FFFFu, head, kIcrcHeadLen);
    state = dart::detail::crc32_update_dispatch(
        state, bth + kBthLen, icrc_off - kRoceOff - kBthLen);
    std::uint32_t got;
    std::memcpy(&got, f + icrc_off, kIcrcLen);
    if (got != ~state) {
      out.verdict = V::kBadIcrc;
      return out;
    }
  }

  // The request, field by field at fixed offsets.
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
  const std::uint32_t psn_word = load_be32(bth + 8);
  const Bth hdr{.opcode = static_cast<Opcode>(op),
                .solicited = (flags & 0x80) != 0,
                .mig_req = (flags & 0x40) != 0,
                .pad_count = static_cast<std::uint8_t>((flags >> 4) & 0x3),
                .pkey = load_be16(bth + 2),
                .dest_qp = load_be32(bth + 4) & 0x00FF'FFFFu,
                .ack_req = (psn_word & 0x8000'0000u) != 0,
                .psn = psn_word & 0x00FF'FFFFu};
  // Starts the request's lifetime by default-initialization and overwrites
  // it field by field: a braced aggregate of the whole request would make
  // GCC clear all of it first.
  const auto start_request = [&out, &hdr, f, icrc_off]() -> RoceRequest& {
    RoceRequest& req = *::new (&out.req) RoceRequest;
    req.bth = hdr;
    std::memcpy(&req.icrc, f + icrc_off, kIcrcLen);
    out.verdict = V::kOk;
    return req;
  };

  const std::size_t roce_len = payload_len - kIcrcLen;
  if (is_write(hdr.opcode)) {
    if (roce_len < kBthLen + kRethLen) {
      out.verdict = V::kBadRequest;
      return out;
    }
    const Reth reth{.vaddr = load_be64(bth + kBthLen),
                    .rkey = load_be32(bth + kBthLen + 8),
                    .dma_length = load_be32(bth + kBthLen + 12)};
    const auto payload = frame.subspan(kRoceOff + kBthLen + kRethLen,
                                       roce_len - kBthLen - kRethLen);
    if (payload.size() != reth.dma_length) {
      out.verdict = V::kBadRequest;
      return out;
    }
    RoceRequest& req = start_request();
    req.reth = reth;
    req.payload = payload;
  } else {  // atomic: AtomicETH then nothing else before the iCRC
    if (roce_len != kBthLen + kAtomicEthLen) {
      out.verdict = V::kBadRequest;
      return out;
    }
    start_request().atomic_eth =
        AtomicEth{.vaddr = load_be64(bth + kBthLen),
                  .rkey = load_be32(bth + kBthLen + 8),
                  .swap_add = load_be64(bth + kBthLen + 12),
                  .compare = load_be64(bth + kBthLen + 20)};
  }
  return out;
}

}  // namespace dart::rdma
