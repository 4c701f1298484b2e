// Wire-level In-band Network Telemetry headers (INT-MD over UDP).
//
// The abstract IntFabric (int_fabric.hpp) models INT as metadata attached to
// flows; this module puts INT *on the wire*, closely following the P4.org
// INT specification's INT-MD mode [15]:
//
//   UDP payload = [ INT shim ][ INT-MD header ][ metadata stack ][ inner payload ]
//
//   shim   (4 B): type, npt, length (4-byte words incl. shim), reserved
//   MD hdr (8 B): ver, flags, hop metadata length (words/hop),
//                 remaining-hop-count, instruction bitmap, domain id
//   stack       : newest hop first; each hop pushes hop_words × 4 bytes
//
// The INT source (first switch) inserts shim+MD header, transits push their
// metadata and decrement remaining-hop-count, the INT sink strips the INT
// headers, restores the inner payload, and hands the accumulated stack to
// the DART reporting pipeline (§3's in-band row of Table 1).
//
// Telemetry-enabled packets are identified by a dedicated UDP destination
// port carried in the shim's "next protocol" field so the sink can restore
// the original port (the spec's NPT=1 "original dest port" mode).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "telemetry/int_path.hpp"

namespace dart::telemetry {

// UDP destination port marking INT-carrying packets in this deployment.
inline constexpr std::uint16_t kIntUdpPort = 5123;

inline constexpr std::size_t kIntShimLen = 4;
inline constexpr std::size_t kIntMdLen = 8;

// Instruction bitmap bits (subset of the spec's bit assignments).
inline constexpr std::uint16_t kIntInsSwitchId = 0x8000;   // bit 0
inline constexpr std::uint16_t kIntInsQueueDepth = 0x1000; // bit 3
inline constexpr std::uint16_t kIntInsHopLatency = 0x2000; // bit 2

struct IntMdHeader {
  std::uint8_t version = 2;
  bool exceeded = false;          // M bit: hop limit exceeded en route
  std::uint8_t hop_words = 1;     // metadata words pushed per hop
  std::uint8_t remaining_hops = 16;
  std::uint16_t instructions = kIntInsSwitchId;
  std::uint16_t domain_id = 0;
};

// Parsed view of an INT-carrying UDP payload.
struct IntWirePacket {
  IntMdHeader md;
  std::uint16_t original_dst_port = 0;  // restored by the sink
  std::vector<IntHopMetadata> hops;     // in path order (oldest first)
  std::span<const std::byte> inner_payload;
};

// Source: wraps `inner_payload` with INT shim + MD header (empty stack).
// `original_dst_port` is preserved in the shim for sink restoration.
[[nodiscard]] std::vector<std::byte> int_source_encap(
    const IntMdHeader& md, std::uint16_t original_dst_port,
    std::span<const std::byte> inner_payload);

// Transit: pushes one hop's metadata onto the stack of an INT UDP payload
// in place (the payload grows). Returns false — and sets the M bit — when
// remaining-hop-count is exhausted (metadata not pushed), matching the spec.
// A payload int_parse rejects is left untouched.
bool int_transit_push(std::vector<std::byte>& udp_payload,
                      const IntHopMetadata& hop);

// Transit on a whole Ethernet/IPv4/UDP frame as net::build_udp_frame writes
// it (net::parse_udp_frame must accept it), in place: pushes the hop into
// the UDP payload as int_transit_push does, then writes the IPv4 total
// length, TTL - 1 (not below 0), the header checksum and the UDP length —
// the bytes rebuilding the frame around the new payload would give.
// Returns the frame's new UDP payload.
std::span<const std::byte> int_transit_push_frame(net::Packet& frame,
                                                  const IntHopMetadata& hop);

// The original destination port carried by an INT UDP payload that
// int_parse accepts (nullopt otherwise). Decodes no hops, allocates nothing.
[[nodiscard]] std::optional<std::uint16_t> int_original_dst_port(
    std::span<const std::byte> udp_payload) noexcept;

// Sink/parser: decodes shim + MD + stack; hops are returned oldest-first
// (path order). Returns nullopt on malformed input.
[[nodiscard]] std::optional<IntWirePacket> int_parse(
    std::span<const std::byte> udp_payload);

// Sink: strips INT headers, returning the restored inner payload bytes.
[[nodiscard]] std::optional<std::vector<std::byte>> int_sink_decap(
    std::span<const std::byte> udp_payload);

// Bytes of INT overhead currently carried by an INT UDP payload.
[[nodiscard]] std::optional<std::size_t> int_overhead_bytes(
    std::span<const std::byte> udp_payload);

// Words each hop pushes for an instruction bitmap (1 word per set field we
// support: switch id, queue depth, hop latency).
[[nodiscard]] constexpr std::uint8_t int_hop_words(std::uint16_t instructions) noexcept {
  std::uint8_t words = 0;
  if (instructions & kIntInsSwitchId) ++words;
  if (instructions & kIntInsQueueDepth) ++words;
  if (instructions & kIntInsHopLatency) ++words;
  return words;
}

}  // namespace dart::telemetry
