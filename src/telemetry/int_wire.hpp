// Wire-level In-band Network Telemetry headers (INT-MD over UDP).
//
// This module puts INT *on the wire* for WireFabric's switches
// (wire_fabric.hpp), closely following the P4.org INT specification's
// INT-MD mode [15]:
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
// the DART reporting pipeline (§3's in-band row of Table 1). Every step
// edits the frame in place, as a switch's parser and deparser do; the
// payload-level reference the tests diff against is src/check/int_oracle.
//
// Telemetry-enabled packets are identified by a dedicated UDP destination
// port carried in the shim's "next protocol" field so the sink can restore
// the original port (the spec's NPT=1 "original dest port" mode).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

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

// Source on a whole Ethernet/IPv4/UDP frame that net::parse_udp_frame
// accepts, in place: inserts the INT shim (carrying the frame's destination
// port), the MD header `md` and `hop`'s words right after the UDP header —
// no words when the bitmap names no supported field, and only the M bit
// when `md` leaves no hop — then rewrites the headers as build_udp_frame
// would write them around the new payload: UDP destination port
// kIntUdpPort, UDP length and checksum 0; IPv4 total length, identification
// and flags 0, ECN 0, TTL - 1 (not below 0) and a fresh header checksum.
// Bytes after the UDP length are dropped. Returns the new UDP payload.
std::span<const std::byte> int_source_push_frame(net::Packet& frame,
                                                 const IntMdHeader& md,
                                                 const IntHopMetadata& hop);

// Transit on a whole Ethernet/IPv4/UDP frame that net::parse_udp_frame
// accepts, in place: pushes `hop` newest-first onto the stack and consumes
// one remaining hop — or sets the M bit and pushes nothing when no hop
// remains or the 8-bit stack word count has no room — then rewrites the
// headers as int_source_push_frame does. A payload int_original_dst_port
// rejects gets the header rewrite only. Returns the new UDP payload.
std::span<const std::byte> int_transit_push_frame(net::Packet& frame,
                                                  const IntHopMetadata& hop);

// The original destination port carried by an INT UDP payload (nullopt when
// the payload is malformed: not our shim type, a stack longer than the
// payload, or a stack word count that is not a whole number of hops).
// Decodes no hops, allocates nothing.
[[nodiscard]] std::optional<std::uint16_t> int_original_dst_port(
    std::span<const std::byte> udp_payload) noexcept;

// Sink, step 1: whether the sink switch with wire id `wire_id` still owes
// the stack its own hop — the stack is empty, or its newest hop carries
// another switch id (0 when the bitmap has no switch id); a sink that was
// also the source has pushed already. nullopt when int_original_dst_port
// rejects the payload: the sink leaves such a frame alone.
[[nodiscard]] std::optional<bool> int_sink_owes_hop(
    std::span<const std::byte> udp_payload, std::uint32_t wire_id) noexcept;

// What int_sink_pop_frame took off a frame.
struct IntSinkResult {
  std::size_t overhead_bytes = 0;     // shim + MD header + stack, own hop too
  std::uint32_t max_queue_depth = 0;  // deepest queue any hop carried
  bool value_written = false;         // the path fit the DART value
};

// Sink, step 2, on a whole frame whose UDP payload int_sink_owes_hop
// accepted, in place. `own_hop` (the sink's hop, when it owes one) joins the
// stack as a transit push would put it there: only while a hop remains and
// the word count has room, and decoded through the bitmap's words, so the
// fields it omits read 0. The hops are visited oldest first; the switch ids
// of the first `max_hops` go big-endian into `value`, zero padded (the
// IntStack(max_hops).encode_value layout), unless they do not fit.
// The inner payload then moves up behind the UDP header and the headers are
// rewritten as int_source_push_frame does, with the original destination
// port. Allocates nothing.
IntSinkResult int_sink_pop_frame(net::Packet& frame,
                                 const std::optional<IntHopMetadata>& own_hop,
                                 std::uint32_t max_hops,
                                 std::span<std::byte> value);

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
