// Reference oracle for the in-place INT edge and transit hops
// (telemetry::int_source_push_frame, int_transit_push_frame,
// int_sink_owes_hop + int_sink_pop_frame).
//
// It is the path the fabric's switches ran before the hops went in place:
// copy the UDP payload out, edit it with the payload-level helpers below
// (int_source_encap, int_transit_push, int_parse, IntStack, int_sink_decap),
// rebuild the whole frame with net::build_udp_frame (TTL - 1, fresh lengths
// and header checksum) and parse the result again. The property suite diffs
// the two byte for byte; only tests use this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "telemetry/int_path.hpp"
#include "telemetry/int_wire.hpp"

namespace dart::check {

// --- payload-level INT-MD helpers -------------------------------------------

// Parsed view of an INT-carrying UDP payload.
struct IntWirePacket {
  telemetry::IntMdHeader md;
  std::uint16_t original_dst_port = 0;           // restored by the sink
  std::vector<telemetry::IntHopMetadata> hops;   // path order (oldest first)
  std::span<const std::byte> inner_payload;
};

// Source: wraps `inner_payload` with INT shim + MD header (empty stack).
// `original_dst_port` is preserved in the shim for sink restoration.
[[nodiscard]] std::vector<std::byte> int_source_encap(
    const telemetry::IntMdHeader& md, std::uint16_t original_dst_port,
    std::span<const std::byte> inner_payload);

// Transit: pushes one hop's metadata onto the stack of an INT UDP payload
// in place (the payload grows). Returns false — and sets the M bit — when
// remaining-hop-count is exhausted or the 8-bit stack word count has no
// room (metadata not pushed). A payload int_parse rejects is left untouched.
bool int_transit_push(std::vector<std::byte>& udp_payload,
                      const telemetry::IntHopMetadata& hop);

// Decodes shim + MD + stack; hops are returned oldest-first (path order).
// Returns nullopt on malformed input.
[[nodiscard]] std::optional<IntWirePacket> int_parse(
    std::span<const std::byte> udp_payload);

// Sink: strips INT headers, returning the restored inner payload bytes.
[[nodiscard]] std::optional<std::vector<std::byte>> int_sink_decap(
    std::span<const std::byte> udp_payload);

// Bytes of INT overhead currently carried by an INT UDP payload.
[[nodiscard]] std::optional<std::size_t> int_overhead_bytes(
    std::span<const std::byte> udp_payload);

// --- frame-level references -------------------------------------------------

// The frame the INT source forwards after encapsulating `frame`, a host's
// Ethernet/IPv4/UDP frame, with `md` and pushing its hop `hop`. Empty when
// `frame` does not parse.
[[nodiscard]] std::vector<std::byte> reference_int_source(
    std::span<const std::byte> frame, const telemetry::IntMdHeader& md,
    const telemetry::IntHopMetadata& hop);

// The frame a transit switch forwards after pushing `hop` onto `frame`, an
// Ethernet/IPv4/UDP frame to the INT port. Empty when `frame` does not parse.
[[nodiscard]] std::vector<std::byte> reference_int_transit(
    std::span<const std::byte> frame, const telemetry::IntHopMetadata& hop);

// What the INT sink does with an INT-port frame for one of its hosts.
struct ReferenceIntSink {
  bool accepted = false;        // int_parse took the payload
  bool own_hop_sampled = false; // the sink asked for its own hop metadata
  std::vector<std::byte> host_frame;  // what the host receives
  std::optional<std::vector<std::byte>> value;  // DART value; nullopt: none
  std::size_t overhead_bytes = 0;
  std::uint32_t max_queue_depth = 0;
};

// The sink switch with wire id `wire_id` and hop metadata `own_hop` (used
// only when it owes the stack its hop), with the fabric's int_max_hops and
// the deployment's value_bytes. `frame` must parse; a rejected payload is
// delivered as it came.
[[nodiscard]] ReferenceIntSink reference_int_sink(
    std::span<const std::byte> frame, std::uint32_t wire_id,
    const telemetry::IntHopMetadata& own_hop, std::uint32_t max_hops,
    std::uint32_t value_bytes);

}  // namespace dart::check
