// RoCEv2 wire format: Base Transport Header (BTH), RDMA Extended Transport
// Header (RETH), Atomic Extended Transport Header (AtomicETH), and the
// invariant CRC (iCRC).
//
// DART switches craft these headers in the P4 egress pipeline (§6): a report
// is a UDP datagram to port 4791 carrying BTH+RETH+payload+iCRC, i.e. an
// RDMA WRITE ONLY operation aimed at a hash-chosen collector address. The
// simulated RNIC decodes every inbound frame with classify_wire_frame, one
// pass at fixed offsets, so the switch and NIC must agree bit-for-bit. Its
// layered twin, one header at a time, is the reference in
// src/check/reference_roce.hpp, and the RoCE property
// (tests/check/test_prop_roce.cpp) diffs the two.
//
// iCRC: we follow the SoftRoCE (rxe) formulation for RoCEv2-over-IPv4:
//   iCRC = CRC32( 8 bytes of 0xFF            — masked dummy LRH
//               ‖ IPv4 header with ToS, TTL, header-checksum set to 0xFF
//                 and flags + fragment offset read as 0
//               ‖ UDP header with checksum set to 0xFFFF
//               ‖ BTH with the resv8a byte set to 0xFF
//               ‖ payload )
// transmitted little-endian after the payload. The crafter's cached prefix
// (icrc_prefix_state) and the RNIC's check mask the same bytes through one
// helper; bit-compatibility with a specific hardware NIC is out of scope and
// irrelevant to the paper's claims.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "net/headers.hpp"

namespace dart::rdma {

// BTH opcodes (IBTA spec §9.2; RC = 0x00-, UC = 0x20-).
enum class Opcode : std::uint8_t {
  kRcRdmaWriteOnly = 0x0A,
  kRcCompareSwap = 0x13,
  kRcFetchAdd = 0x14,
  kUcRdmaWriteOnly = 0x2A,
};

[[nodiscard]] constexpr bool is_write(Opcode op) noexcept {
  return op == Opcode::kRcRdmaWriteOnly || op == Opcode::kUcRdmaWriteOnly;
}
[[nodiscard]] constexpr bool is_atomic(Opcode op) noexcept {
  return op == Opcode::kRcCompareSwap || op == Opcode::kRcFetchAdd;
}
[[nodiscard]] constexpr bool is_unreliable(Opcode op) noexcept {
  return (static_cast<std::uint8_t>(op) & 0xE0u) == 0x20u;
}

inline constexpr std::size_t kBthLen = 12;
inline constexpr std::size_t kRethLen = 16;
inline constexpr std::size_t kAtomicEthLen = 28;
inline constexpr std::size_t kIcrcLen = 4;

// Base Transport Header (12 bytes).
struct Bth {
  Opcode opcode = Opcode::kRcRdmaWriteOnly;
  bool solicited = false;
  bool mig_req = true;   // matches common NIC defaults
  std::uint8_t pad_count = 0;
  std::uint16_t pkey = 0xFFFF;  // default partition
  std::uint32_t dest_qp = 0;    // 24 bits
  bool ack_req = false;
  std::uint32_t psn = 0;  // 24 bits

  void serialize(BufWriter& w) const;
};

// RDMA Extended Transport Header (16 bytes) — WRITE/READ address info.
struct Reth {
  std::uint64_t vaddr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t dma_length = 0;

  void serialize(BufWriter& w) const;
};

// Atomic Extended Transport Header (28 bytes) — CAS / Fetch&Add operands.
struct AtomicEth {
  std::uint64_t vaddr = 0;
  std::uint32_t rkey = 0;
  std::uint64_t swap_add = 0;  // swap value (CAS) or addend (F&A)
  std::uint64_t compare = 0;   // compare value (CAS only)

  void serialize(BufWriter& w) const;
};

// A fully parsed RoCEv2 request as it leaves the UDP payload.
struct RoceRequest {
  Bth bth;
  std::optional<Reth> reth;            // present for WRITE
  std::optional<AtomicEth> atomic_eth; // present for CAS / F&A
  std::span<const std::byte> payload;  // WRITE payload (view into input)
  std::uint32_t icrc = 0;              // as carried on the wire
};

// Serializes BTH (+RETH) + payload + a zeroed iCRC slot into `w`. Returns
// the offset of the iCRC field.
std::size_t serialize_write(BufWriter& w, const Bth& bth, const Reth& reth,
                            std::span<const std::byte> payload);

std::size_t serialize_atomic(BufWriter& w, const Bth& bth,
                             const AtomicEth& aeth);

// Offset of the first iCRC-covered byte that can differ between two frames
// of one (source, destination) endpoint pair: the BTH PSN word. Everything
// before it — Eth/IP/UDP headers and BTH bytes 0..7 — is invariant for a
// fixed endpoint pair and payload length, which is what makes the masked
// prefix cacheable.
inline constexpr std::size_t kIcrcVariantOffset =
    net::kEthernetHeaderLen + net::kIpv4HeaderLen + net::kUdpHeaderLen + 8;

// Streaming-CRC state over the masked invariant prefix of `frame`: the 8
// dummy-LRH 0xFF bytes, the masked IPv4 and UDP headers, and BTH bytes 0..7
// with resv8a masked, as classify_wire_frame masks them. Resuming this state over
// frame[kIcrcVariantOffset .. icrc) yields the full iCRC. The report
// crafter's frame templates cache this state once per (endpoint, collector)
// pair so per-report iCRC work shrinks to the ~50 variant bytes. `frame`
// must hold at least kIcrcVariantOffset bytes of a well-formed frame.
[[nodiscard]] Crc32 icrc_prefix_state(std::span<const std::byte> frame) noexcept;

// ---------------------------------------------------------------------------
// Wire classification (the RNIC's receive path)
// ---------------------------------------------------------------------------
//
// classify_wire_frame decides every inbound frame in one pass: the
// Ethernet/IPv4/UDP acceptance rule of net::parse_udp_frame (shared through
// net::udp_payload_length), the UDP port, the masked iCRC and the request
// fields. Its verdicts, in the order they are decided:
//   1. a frame the UDP rule refuses is kNotUdp (IPv4 options, other
//      protocols than UDP and the simulator's TCP, a bad header checksum, a
//      UDP length below 8 or past the frame);
//   2. a datagram to any port but 4791 is kOtherPort, with the port and its
//      payload for the caller (the RNIC's DTA multiwrite);
//   3. a payload with no room for BTH + iCRC is kBadIcrc when the iCRC is
//      checked and kBadRequest when not;
//   4. a trailing iCRC that does not match is kBadIcrc. It is computed over
//      the masked image for any frame length: report-sized frames in one
//      contiguous CRC stream over a stack copy, longer ones with the bytes
//      past that copy streamed from the frame;
//   5. a malformed BTH/RETH/AtomicETH is kBadRequest, anything else kOk.
struct WireClass {
  enum class Verdict : std::uint8_t {
    kNotUdp,      // not an Ethernet/IPv4/UDP frame this simulator parses
    kOtherPort,   // well-formed UDP, dst port is not 4791 (see udp_dst_port)
    kBadIcrc,     // trailing iCRC does not match, or no room for it
    kBadRequest,  // iCRC ok (or skipped) but BTH/RETH/AtomicETH malformed
    kOk,          // `req` holds the parsed request
  };

  Verdict verdict = Verdict::kNotUdp;
  std::uint16_t udp_dst_port = 0;
  std::span<const std::byte> udp_payload;  // valid unless kNotUdp
  RoceRequest req{};                       // valid when kOk
};

// `check_icrc` mirrors the RNIC's validate-iCRC knob; when false the CRC
// pass is skipped entirely.
[[nodiscard]] WireClass classify_wire_frame(std::span<const std::byte> frame,
                                            bool check_icrc) noexcept;

}  // namespace dart::rdma
