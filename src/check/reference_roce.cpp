#include "check/reference_roce.hpp"

#include <array>
#include <cstring>
#include <vector>

#include "check/reference_headers.hpp"
#include "common/hash.hpp"

namespace dart::check {

// ---------------------------------------------------------------------------
// Transport headers
// ---------------------------------------------------------------------------

std::optional<rdma::Bth> reference_parse_bth(BufReader& r) {
  rdma::Bth h;
  const std::uint8_t op = r.u8();
  const std::uint8_t flags = r.u8();
  h.pkey = r.be16();
  const std::uint32_t qp_word = r.be32();
  const std::uint32_t psn_word = r.be32();
  if (!r.ok()) return std::nullopt;
  switch (op) {
    case static_cast<std::uint8_t>(rdma::Opcode::kRcRdmaWriteOnly):
    case static_cast<std::uint8_t>(rdma::Opcode::kRcCompareSwap):
    case static_cast<std::uint8_t>(rdma::Opcode::kRcFetchAdd):
    case static_cast<std::uint8_t>(rdma::Opcode::kUcRdmaWriteOnly):
      h.opcode = static_cast<rdma::Opcode>(op);
      break;
    default:
      return std::nullopt;  // opcode not supported by this RNIC model
  }
  h.solicited = (flags & 0x80) != 0;
  h.mig_req = (flags & 0x40) != 0;
  h.pad_count = (flags >> 4) & 0x3;
  if ((flags & 0x0F) != 0) return std::nullopt;  // header version must be 0
  h.dest_qp = qp_word & 0x00FF'FFFFu;
  h.ack_req = (psn_word & 0x8000'0000u) != 0;
  h.psn = psn_word & 0x00FF'FFFFu;
  return h;
}

std::optional<rdma::Reth> reference_parse_reth(BufReader& r) {
  rdma::Reth h;
  h.vaddr = r.be64();
  h.rkey = r.be32();
  h.dma_length = r.be32();
  if (!r.ok()) return std::nullopt;
  return h;
}

std::optional<rdma::AtomicEth> reference_parse_atomic_eth(BufReader& r) {
  rdma::AtomicEth h;
  h.vaddr = r.be64();
  h.rkey = r.be32();
  h.swap_add = r.be64();
  h.compare = r.be64();
  if (!r.ok()) return std::nullopt;
  return h;
}

std::optional<rdma::RoceRequest> reference_parse_request(
    std::span<const std::byte> udp_payload) {
  if (udp_payload.size() < rdma::kBthLen + rdma::kIcrcLen) return std::nullopt;

  BufReader r(udp_payload.first(udp_payload.size() - rdma::kIcrcLen));
  rdma::RoceRequest req;
  const auto bth = reference_parse_bth(r);
  if (!bth) return std::nullopt;
  req.bth = *bth;

  if (rdma::is_write(req.bth.opcode)) {
    const auto reth = reference_parse_reth(r);
    if (!reth) return std::nullopt;
    req.reth = *reth;
    req.payload = r.rest();
    if (req.payload.size() != req.reth->dma_length) return std::nullopt;
  } else if (rdma::is_atomic(req.bth.opcode)) {
    const auto aeth = reference_parse_atomic_eth(r);
    if (!aeth) return std::nullopt;
    req.atomic_eth = *aeth;
    if (r.remaining() != 0) return std::nullopt;
  } else {
    return std::nullopt;
  }

  // Trailing iCRC, little-endian per rxe convention.
  const auto* icrc_bytes =
      udp_payload.data() + udp_payload.size() - rdma::kIcrcLen;
  std::memcpy(&req.icrc, icrc_bytes, rdma::kIcrcLen);
  return req;
}

// ---------------------------------------------------------------------------
// iCRC
// ---------------------------------------------------------------------------

std::uint32_t reference_compute_icrc(const net::Ipv4Header& ip,
                                     const net::UdpHeader& udp,
                                     std::span<const std::byte> bth_to_payload) {
  if (bth_to_payload.size() < rdma::kBthLen) return 0;
  Crc32 crc;

  // 8 masked dummy-LRH bytes.
  std::array<std::byte, 8> lrh;
  lrh.fill(std::byte{0xFF});
  crc.update(lrh);

  // Masked IPv4 header: ToS, TTL, checksum → 0xFF.
  {
    std::vector<std::byte> hdr;
    BufWriter w(hdr);
    reference_serialize_ipv4(ip, w);
    hdr[1] = std::byte{0xFF};             // ToS (DSCP/ECN)
    hdr[8] = std::byte{0xFF};             // TTL
    hdr[10] = hdr[11] = std::byte{0xFF};  // header checksum
    crc.update(hdr);
  }

  // Masked UDP header: checksum → 0xFFFF.
  {
    std::vector<std::byte> hdr;
    BufWriter w(hdr);
    reference_serialize_udp(udp, w);
    hdr[6] = hdr[7] = std::byte{0xFF};
    crc.update(hdr);
  }

  // BTH with resv8a (byte 4 of BTH — top byte of the dest-QP word) masked.
  {
    std::array<std::byte, rdma::kBthLen> bth;
    std::memcpy(bth.data(), bth_to_payload.data(), rdma::kBthLen);
    bth[4] = std::byte{0xFF};
    crc.update(bth);
  }

  // Remaining transport headers + payload.
  crc.update(bth_to_payload.subspan(rdma::kBthLen));
  return crc.value();
}

namespace {

// The frame's parsed IPv4 and UDP headers and where its iCRC sits, or
// nullopt when the frame does not parse or has no room for BTH + iCRC.
struct IcrcSlot {
  net::Ipv4Header ip;
  net::UdpHeader udp;
  std::size_t roce_off = 0;  // offset of the BTH within the frame
  std::size_t roce_len = 0;  // BTH .. payload, without the iCRC
};

std::optional<IcrcSlot> icrc_slot(std::span<const std::byte> frame) {
  const auto parsed = reference_parse_udp_frame(frame);
  if (!parsed) return std::nullopt;
  if (parsed->payload.size() < rdma::kBthLen + rdma::kIcrcLen) {
    return std::nullopt;
  }
  return IcrcSlot{
      parsed->ip, parsed->udp,
      static_cast<std::size_t>(parsed->payload.data() - frame.data()),
      parsed->payload.size() - rdma::kIcrcLen};
}

std::uint32_t icrc_of(std::span<const std::byte> frame, const IcrcSlot& s) {
  return reference_compute_icrc(s.ip, s.udp,
                                frame.subspan(s.roce_off, s.roce_len));
}

}  // namespace

bool reference_finalize_frame_icrc(std::span<std::byte> frame) {
  const auto s = icrc_slot(frame);
  if (!s) return false;
  const std::uint32_t icrc = icrc_of(frame, *s);
  std::memcpy(frame.data() + s->roce_off + s->roce_len, &icrc, rdma::kIcrcLen);
  return true;
}

bool reference_verify_frame_icrc(std::span<const std::byte> frame) {
  const auto s = icrc_slot(frame);
  if (!s) return false;
  std::uint32_t got;
  std::memcpy(&got, frame.data() + s->roce_off + s->roce_len, rdma::kIcrcLen);
  return got == icrc_of(frame, *s);
}

// ---------------------------------------------------------------------------
// Frame decode
// ---------------------------------------------------------------------------

ReferenceDecode reference_decode_frame(std::span<const std::byte> frame,
                                       bool check_icrc) {
  using V = ReferenceDecode::Verdict;
  ReferenceDecode out;
  const auto parsed = reference_parse_udp_frame(frame);
  if (!parsed) return out;
  out.udp_dst_port = parsed->udp.dst_port;
  out.udp_payload = parsed->payload;
  if (parsed->udp.dst_port != net::kRoceV2UdpPort) {
    out.verdict = V::kOtherPort;
    return out;
  }
  if (check_icrc && !reference_verify_frame_icrc(frame)) {
    out.verdict = V::kBadIcrc;
    return out;
  }
  out.req = reference_parse_request(parsed->payload);
  out.verdict = out.req ? V::kOk : V::kBadRequest;
  return out;
}

}  // namespace dart::check
