// Reference oracle for the in-place INT transit hop
// (telemetry::int_transit_push_frame).
//
// It is the transit path the fabric's switches ran before the push went in
// place: copy the UDP payload out, push the hop with int_transit_push,
// rebuild the whole frame with net::build_udp_frame (TTL - 1, fresh lengths
// and header checksum) and parse the result again. The property suite diffs
// the two byte for byte.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "telemetry/int_path.hpp"

namespace dart::check {

// The frame a transit switch forwards after pushing `hop` onto `frame`, an
// Ethernet/IPv4/UDP frame to the INT port. Empty when `frame` does not parse.
[[nodiscard]] std::vector<std::byte> reference_int_transit(
    std::span<const std::byte> frame, const telemetry::IntHopMetadata& hop);

}  // namespace dart::check
