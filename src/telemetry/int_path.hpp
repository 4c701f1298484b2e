// In-band Network Telemetry (INT) path tracing — the paper's running example.
//
// In-band mode (Table 1, row 1): each switch on the path pushes its metadata
// into the packet; the last hop (the INT sink) extracts the accumulated
// stack and reports it to DART keyed by the flow 5-tuple. Fig. 4 uses
// 32 bits per hop over 5 fat-tree hops = a 160-bit value.
//
// Postcard mode (Table 1, row 2): every switch reports its own hop metadata
// immediately, keyed by (switch id, 5-tuple).
//
// IntStack models the packet-carried metadata stack (bounded, like the INT
// spec's hop count limit); encode/decode fix the byte layout of the DART
// value so switches, collectors and queriers agree.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace dart::telemetry {

// Per-hop INT metadata. The paper's Fig. 4 carries just the switch id
// (32 bits/hop); the wire-level INT headers (int_wire.hpp) and postcards
// also carry queue depth + latency.
struct IntHopMetadata {
  std::uint32_t switch_id = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t hop_latency_ns = 0;
};

// The packet-carried metadata stack.
class IntStack {
 public:
  explicit IntStack(std::uint32_t max_hops = 16) : max_hops_(max_hops) {}

  // Returns false (and drops the metadata) once max_hops is reached — the
  // INT spec's hop-limit behaviour.
  bool push_hop(const IntHopMetadata& hop);

  [[nodiscard]] std::span<const IntHopMetadata> hops() const noexcept {
    return hops_;
  }
  [[nodiscard]] std::uint32_t hop_count() const noexcept {
    return static_cast<std::uint32_t>(hops_.size());
  }

  // Fixed-width DART value: the hops' switch ids packed big-endian in path
  // order (4 B/hop, Fig. 4), zero padded to `value_bytes`. Fails (nullopt)
  // if the stack doesn't fit.
  [[nodiscard]] std::optional<std::vector<std::byte>> encode_value(
      std::uint32_t value_bytes) const;

  // Inverse of encode_value: extracts leading non-zero switch ids.
  // `expected_hops` bounds the scan (0 = until a zero id).
  [[nodiscard]] static std::vector<std::uint32_t> decode_switch_ids(
      std::span<const std::byte> value, std::uint32_t expected_hops = 0);

 private:
  std::uint32_t max_hops_;
  std::vector<IntHopMetadata> hops_;
};

}  // namespace dart::telemetry
