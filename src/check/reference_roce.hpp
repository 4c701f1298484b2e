// Reference twin of the RNIC's RoCEv2 receive path in src/rdma: the layered
// decode that rdma::classify_wire_frame does in one pass.
//
// Each transport header is parsed on its own through a BufReader, one
// bounds-checked field at a time; the iCRC re-serializes the IPv4 and UDP
// headers from their parsed fields (so IPv4 flags and fragment offset enter
// it as zero), masks them and the BTH, and runs the CRC over the pieces in
// turn. The frame decode takes the headers apart with
// reference_parse_udp_frame (reference_headers.hpp). Nothing here calls the
// production RoCE or header decode, so the RoCE property
// (tests/check/test_prop_roce.cpp) can diff verdicts, UDP port and payload
// and every request field against it. Only tests and the golden and corpus
// generators use it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "net/headers.hpp"
#include "rdma/roce.hpp"

namespace dart::check {

// Per-header parsers over a shared reader: nullopt when the reader runs
// short. The BTH also refuses an opcode this RNIC model does not execute
// and a transport header version other than 0.
[[nodiscard]] std::optional<rdma::Bth> reference_parse_bth(BufReader& r);
[[nodiscard]] std::optional<rdma::Reth> reference_parse_reth(BufReader& r);
[[nodiscard]] std::optional<rdma::AtomicEth> reference_parse_atomic_eth(
    BufReader& r);

// A RoCEv2 request from a UDP payload (BTH .. iCRC): a WRITE's DMA length
// must equal its payload, an atomic carries nothing after its AtomicETH.
// Does not verify the iCRC.
[[nodiscard]] std::optional<rdma::RoceRequest> reference_parse_request(
    std::span<const std::byte> udp_payload);

// The iCRC of a frame with these IPv4 and UDP headers whose transport
// headers and payload, without the 4 iCRC bytes, are `bth_to_payload`.
// 0 when `bth_to_payload` is shorter than a BTH.
[[nodiscard]] std::uint32_t reference_compute_icrc(
    const net::Ipv4Header& ip, const net::UdpHeader& udp,
    std::span<const std::byte> bth_to_payload);

// Writes the iCRC into the last 4 bytes of a frame's UDP payload; false
// when the frame does not parse or its payload is shorter than BTH + iCRC.
bool reference_finalize_frame_icrc(std::span<std::byte> frame);

// Whether the last 4 bytes of a frame's UDP payload hold its iCRC; false
// for a frame reference_finalize_frame_icrc would refuse.
[[nodiscard]] bool reference_verify_frame_icrc(
    std::span<const std::byte> frame);

// What the layered receive path decides for one frame before any QP or
// memory region is consulted, in its order: the Ethernet/IPv4/UDP parse,
// the UDP port, the iCRC (when `check_icrc`), the request parse.
struct ReferenceDecode {
  enum class Verdict : std::uint8_t {
    kNotUdp,      // the header parse refuses the frame
    kOtherPort,   // a datagram to a port other than 4791
    kBadIcrc,     // iCRC checked and wrong, or no room for BTH + iCRC
    kBadRequest,  // BTH/RETH/AtomicETH malformed, or a runt unchecked
    kOk,          // `req` holds the request
  };

  Verdict verdict = Verdict::kNotUdp;
  std::uint16_t udp_dst_port = 0;          // unless kNotUdp
  std::span<const std::byte> udp_payload;  // unless kNotUdp
  std::optional<rdma::RoceRequest> req;    // when kOk
};

[[nodiscard]] ReferenceDecode reference_decode_frame(
    std::span<const std::byte> frame, bool check_icrc);

}  // namespace dart::check
