// Tests for the wire-level INT-MD encoding on whole frames, as the fabric's
// switches run it: source encap, transit push, hop limit, sink decap, and
// field round trips.
#include "telemetry/int_wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "net/headers.hpp"

namespace dart::telemetry {
namespace {

// MD header bytes inside the UDP payload (layout in int_wire.cpp).
constexpr std::size_t kMdFlags = 4;       // version << 4 | M bit
constexpr std::size_t kMdRemaining = 6;   // remaining-hop-count

std::vector<std::byte> inner(std::size_t n = 10, std::uint8_t fill = 0x7E) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

IntMdHeader md(std::uint16_t instructions = kIntInsSwitchId,
               std::uint8_t max_hops = 8) {
  IntMdHeader h;
  h.instructions = instructions;
  h.hop_words = int_hop_words(instructions);
  h.remaining_hops = max_hops;
  return h;
}

// A host's datagram, as HostNode sends it.
net::Packet host_frame(std::span<const std::byte> payload,
                       std::uint16_t dst_port = 80) {
  net::UdpFrameSpec spec;
  spec.src_ip = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  spec.dst_ip = net::Ipv4Addr::from_octets(10, 1, 0, 2);
  spec.src_port = 50000;
  spec.dst_port = dst_port;
  return net::Packet(net::build_udp_frame(spec, payload));
}

std::span<const std::byte> udp_payload(const net::Packet& frame) {
  const auto parsed = net::parse_udp_frame(frame.bytes());
  return parsed ? parsed->payload : std::span<const std::byte>{};
}

// The sink switch `wire_id` on `frame`: pops the stack (adding `own` when
// it owes its hop) and returns what it took off, with the DART value.
struct Sunk {
  IntSinkResult result;
  std::vector<std::byte> value;
};

Sunk sink(net::Packet& frame, std::uint32_t wire_id, IntHopMetadata own,
          std::uint32_t max_hops = 8, std::size_t value_bytes = 20) {
  Sunk out{{}, std::vector<std::byte>(value_bytes)};
  const auto owes = int_sink_owes_hop(udp_payload(frame), wire_id);
  EXPECT_TRUE(owes.has_value());
  if (!owes) return out;
  std::optional<IntHopMetadata> hop;
  if (*owes) hop = own;
  out.result = int_sink_pop_frame(frame, hop, max_hops, out.value);
  return out;
}

std::uint32_t be32_at(std::span<const std::byte> bytes, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<std::uint8_t>(bytes[off + i]);
  }
  return v;
}

TEST(IntWire, SourceEncapPreservesInnerAndPort) {
  auto frame = host_frame(inner(), 4321);
  const auto payload = int_source_push_frame(frame, md(), {.switch_id = 5});
  // Shim + MD header + the source's one-word hop, then the inner bytes.
  EXPECT_EQ(payload.size(), kIntShimLen + kIntMdLen + 4 + 10);
  EXPECT_EQ(int_original_dst_port(payload), 4321);
  EXPECT_EQ(be32_at(payload, kIntShimLen + kIntMdLen), 5u);
  EXPECT_EQ(static_cast<std::uint8_t>(payload[kIntShimLen + kIntMdLen + 4]),
            0x7E);

  const auto parsed = net::parse_udp_frame(frame.bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->udp.dst_port, kIntUdpPort);
  EXPECT_EQ(parsed->ip.ttl, 63);
}

TEST(IntWire, TransitPushAccumulatesInPathOrder) {
  auto frame = host_frame(inner());
  (void)int_source_push_frame(frame, md(), {.switch_id = 11});
  (void)int_transit_push_frame(frame, {.switch_id = 22});
  const auto payload = int_transit_push_frame(frame, {.switch_id = 33});
  EXPECT_EQ(static_cast<std::uint8_t>(payload[kMdRemaining]), 5u);

  const auto sunk = sink(frame, 44, {.switch_id = 44});
  ASSERT_TRUE(sunk.result.value_written);
  // Oldest first, the sink's own hop last.
  EXPECT_EQ(be32_at(sunk.value, 0), 11u);
  EXPECT_EQ(be32_at(sunk.value, 4), 22u);
  EXPECT_EQ(be32_at(sunk.value, 8), 33u);
  EXPECT_EQ(be32_at(sunk.value, 12), 44u);
  EXPECT_EQ(be32_at(sunk.value, 16), 0u);  // zero padding
}

TEST(IntWire, HopLimitSetsExceededBit) {
  auto frame = host_frame(inner());
  (void)int_source_push_frame(frame, md(kIntInsSwitchId, 2), {.switch_id = 1});
  (void)int_transit_push_frame(frame, {.switch_id = 2});
  const std::size_t size = frame.size();
  const auto payload = int_transit_push_frame(frame, {.switch_id = 3});
  EXPECT_EQ(frame.size(), size);  // over the limit: nothing pushed
  EXPECT_EQ(static_cast<std::uint8_t>(payload[kMdFlags]) & 0x1, 1);

  // The sink owes its hop but has no room either.
  const auto sunk = sink(frame, 4, {.switch_id = 4});
  ASSERT_TRUE(sunk.result.value_written);
  EXPECT_EQ(be32_at(sunk.value, 0), 1u);
  EXPECT_EQ(be32_at(sunk.value, 4), 2u);
  EXPECT_EQ(be32_at(sunk.value, 8), 0u);
  EXPECT_EQ(sunk.result.overhead_bytes, kIntShimLen + kIntMdLen + 8);
}

TEST(IntWire, RichInstructionsCarryAllFields) {
  const auto ins = static_cast<std::uint16_t>(
      kIntInsSwitchId | kIntInsHopLatency | kIntInsQueueDepth);
  EXPECT_EQ(int_hop_words(ins), 3u);
  auto frame = host_frame(inner());
  const auto payload = int_source_push_frame(
      frame, md(ins),
      {.switch_id = 7, .queue_depth = 42, .hop_latency_ns = 1700});
  // Word order: switch id, hop latency, queue depth.
  const std::size_t stack = kIntShimLen + kIntMdLen;
  EXPECT_EQ(be32_at(payload, stack), 7u);
  EXPECT_EQ(be32_at(payload, stack + 4), 1700u);
  EXPECT_EQ(be32_at(payload, stack + 8), 42u);

  const auto sunk =
      sink(frame, 8, {.switch_id = 8, .queue_depth = 9, .hop_latency_ns = 1});
  EXPECT_EQ(sunk.result.max_queue_depth, 42u);
  EXPECT_EQ(sunk.result.overhead_bytes, stack + 24);
}

TEST(IntWire, SinkDecapRestoresInnerExactly) {
  const auto original = inner(37, 0xAB);
  auto frame = host_frame(original, 8080);
  (void)int_source_push_frame(frame, md(), {.switch_id = 1});
  (void)int_transit_push_frame(frame, {.switch_id = 2});
  (void)sink(frame, 3, {.switch_id = 3});

  // The host gets its datagram back, three hops older.
  net::UdpFrameSpec spec;
  spec.src_ip = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  spec.dst_ip = net::Ipv4Addr::from_octets(10, 1, 0, 2);
  spec.src_port = 50000;
  spec.dst_port = 8080;
  spec.ttl = 61;
  const auto expected = net::build_udp_frame(spec, original);
  EXPECT_TRUE(std::ranges::equal(frame.bytes(), expected));
}

TEST(IntWire, OverheadGrowsPerHop) {
  // Source only, then the sink's hop: shim + MD + two words.
  auto one = host_frame(inner());
  (void)int_source_push_frame(one, md(), {.switch_id = 1});
  EXPECT_EQ(sink(one, 9, {.switch_id = 9}).result.overhead_bytes,
            kIntShimLen + kIntMdLen + 8);

  auto two = host_frame(inner());
  (void)int_source_push_frame(two, md(), {.switch_id = 1});
  (void)int_transit_push_frame(two, {.switch_id = 2});
  EXPECT_EQ(sink(two, 9, {.switch_id = 9}).result.overhead_bytes,
            kIntShimLen + kIntMdLen + 12);

  // A sink that was also the source pushed its hop already.
  auto intra = host_frame(inner());
  (void)int_source_push_frame(intra, md(), {.switch_id = 1});
  EXPECT_EQ(int_sink_owes_hop(udp_payload(intra), 1), false);
  EXPECT_EQ(sink(intra, 1, {.switch_id = 1}).result.overhead_bytes,
            kIntShimLen + kIntMdLen + 4);
}

TEST(IntWire, NonIntPayloadRejected) {
  const std::vector<std::byte> junk(20, std::byte{0x42});
  EXPECT_FALSE(int_original_dst_port(junk).has_value());
  EXPECT_FALSE(int_sink_owes_hop(junk, 1).has_value());

  // A transit leaves such a payload alone: only TTL and checksum change.
  auto frame = host_frame(junk, kIntUdpPort);
  const std::size_t size = frame.size();
  const auto payload = int_transit_push_frame(frame, {.switch_id = 1});
  EXPECT_EQ(frame.size(), size);
  EXPECT_TRUE(std::ranges::equal(payload, junk));
}

TEST(IntWire, TruncatedStackRejected) {
  auto frame = host_frame({});
  (void)int_source_push_frame(frame, md(), {.switch_id = 1});
  const auto payload = int_transit_push_frame(frame, {.switch_id = 2});
  ASSERT_TRUE(int_original_dst_port(payload).has_value());
  const auto cut = payload.first(payload.size() - 2);  // into the stack
  EXPECT_FALSE(int_original_dst_port(cut).has_value());
  EXPECT_FALSE(int_sink_owes_hop(cut, 3).has_value());
}

TEST(IntWire, EmptyInnerPayloadWorks) {
  auto frame = host_frame({});
  (void)int_source_push_frame(frame, md(), {.switch_id = 9});
  const auto sunk = sink(frame, 10, {.switch_id = 10});
  EXPECT_EQ(sunk.result.overhead_bytes, kIntShimLen + kIntMdLen + 8);
  EXPECT_EQ(be32_at(sunk.value, 0), 9u);
  EXPECT_EQ(be32_at(sunk.value, 4), 10u);
  const auto parsed = net::parse_udp_frame(frame.bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
  EXPECT_EQ(parsed->udp.dst_port, 80);
}

}  // namespace
}  // namespace dart::telemetry
