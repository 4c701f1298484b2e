// In-place INT transit against the rebuild oracle: 1000 seeded frames shaped
// like the fabric's — a HostNode datagram wrapped by the INT source, with 0
// to max hops already on the stack — must leave int_transit_push_frame
// byte-identical to reference_int_transit (copy, int_transit_push,
// build_udp_frame, reparse). Covers 1-3 hop words, the exhausted hop count
// (M bit set, nothing pushed), TTL 0/1/255, and payloads int_parse rejects,
// where only the TTL and the header checksum may change.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/int_oracle.hpp"
#include "check/property.hpp"
#include "net/headers.hpp"
#include "telemetry/int_wire.hpp"

namespace dart::check {
namespace {

using telemetry::IntHopMetadata;
using telemetry::kIntInsHopLatency;
using telemetry::kIntInsQueueDepth;
using telemetry::kIntInsSwitchId;

constexpr std::uint16_t kInstructionSets[] = {
    kIntInsSwitchId,
    kIntInsQueueDepth,
    kIntInsHopLatency,
    kIntInsSwitchId | kIntInsQueueDepth,
    kIntInsSwitchId | kIntInsHopLatency,
    kIntInsQueueDepth | kIntInsHopLatency,
    kIntInsSwitchId | kIntInsQueueDepth | kIntInsHopLatency,
    0x0400,  // only a bit this deployment does not support: 0 hop words
};

constexpr std::uint8_t kTtls[] = {0, 1, 255, 64};

// IPv4 header bytes a transit may change on a payload int_parse rejects.
constexpr std::size_t kTtlByte = net::kEthernetHeaderLen + 8;
constexpr std::size_t kChecksumByte = net::kEthernetHeaderLen + 10;

struct Coverage {
  std::uint64_t pushed = 0;
  std::uint64_t exceeded = 0;    // remaining-hop-count 0: M bit, no push
  std::uint64_t rejected = 0;    // int_parse rejects the payload
  std::uint64_t ttl_zero = 0;
  std::uint64_t ttl_one = 0;
  std::uint64_t ttl_max = 0;
  std::uint64_t word_counts[4] = {};  // by hop words of the bitmap
};

IntHopMetadata gen_hop(Rng& rng) {
  IntHopMetadata hop;
  hop.switch_id = static_cast<std::uint32_t>(rng.below(1u << 16));
  hop.queue_depth = static_cast<std::uint32_t>(rng.u64());
  hop.hop_latency_ns = static_cast<std::uint32_t>(rng.below(1u << 20));
  return hop;
}

// The UDP payload a packet carries after the INT source and some transits,
// sometimes damaged so int_parse rejects it (or carrying no INT at all).
std::vector<std::byte> gen_payload(Rng& rng) {
  telemetry::IntMdHeader md;
  md.remaining_hops = static_cast<std::uint8_t>(rng.below(9));
  md.instructions = kInstructionSets[rng.below(std::size(kInstructionSets))];
  md.hop_words = telemetry::int_hop_words(md.instructions);
  const auto inner = rng.bytes(rng.below(96));
  auto payload = telemetry::int_source_encap(
      md, static_cast<std::uint16_t>(rng.below(1u << 16)), inner);
  // Zero pushes up to one past the hop limit.
  const auto pushes = rng.below(std::uint64_t{md.remaining_hops} + 2);
  for (std::uint64_t i = 0; i < pushes; ++i) {
    (void)telemetry::int_transit_push(payload, gen_hop(rng));
  }

  switch (rng.below(8)) {
    case 0:  // truncated anywhere, the headers included
      payload.resize(rng.below(payload.size() + 1));
      break;
    case 1:  // not our shim type
      payload[0] = static_cast<std::byte>(2 + rng.below(254));
      break;
    case 2:  // a stack word count the payload does not match
      payload[1] = static_cast<std::byte>(rng.below(256));
      break;
    case 3:  // no INT at all, on the INT port
      payload = rng.bytes(rng.below(64));
      break;
    default:
      break;
  }
  return payload;
}

// An INT-port frame as the INT source writes it: HostNode addressing,
// rebuilt around the INT payload.
std::vector<std::byte> gen_frame(Rng& rng, std::span<const std::byte> payload) {
  const auto octet = [&rng](std::uint64_t lo, std::uint64_t n) {
    return static_cast<std::uint8_t>(lo + rng.below(n));
  };
  net::UdpFrameSpec spec;
  const auto host = octet(0, 256);
  spec.src_mac = {0x02, 0x0A, 0, 0, 0, host};
  spec.dst_mac = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  // A braced list draws left to right; function arguments would not.
  const std::uint8_t o[] = {octet(0, 8), octet(0, 4), octet(0, 8),
                            octet(0, 4), octet(2, 8)};
  spec.src_ip = net::Ipv4Addr::from_octets(10, o[0], o[1], host);
  spec.dst_ip = net::Ipv4Addr::from_octets(10, o[2], o[3], o[4]);
  spec.src_port = static_cast<std::uint16_t>(rng.below(1u << 16));
  spec.dst_port = telemetry::kIntUdpPort;
  spec.ttl = rng.chance(0.5) ? kTtls[rng.below(std::size(kTtls))]
                             : static_cast<std::uint8_t>(rng.below(256));
  spec.dscp = rng.chance(0.2) ? static_cast<std::uint8_t>(rng.below(64)) : 0;
  spec.protocol = rng.chance(0.5) ? net::kIpProtoUdp : 6;
  return net::build_udp_frame(spec, payload);
}

std::optional<Failure> transit_property(Rng& rng, Coverage& cov) {
  const auto payload = gen_payload(rng);
  const auto frame = gen_frame(rng, payload);
  const auto hop = gen_hop(rng);

  const auto expected = reference_int_transit(frame, hop);
  if (expected.empty()) return Failure{"oracle produced no frame", frame};
  net::Packet packet(frame);
  const auto view = telemetry::int_transit_push_frame(packet, hop);

  const auto got = packet.bytes();
  if (!std::ranges::equal(got, expected)) {
    std::size_t off = 0;
    while (off < got.size() && off < expected.size() &&
           got[off] == expected[off]) {
      ++off;
    }
    return Failure{"in-place frame (" + std::to_string(got.size()) +
                       " B) differs from the oracle's (" +
                       std::to_string(expected.size()) + " B) at byte " +
                       std::to_string(off),
                   frame};
  }
  const auto reparsed = net::parse_udp_frame(expected);
  if (!std::ranges::equal(view, reparsed->payload)) {
    return Failure{"returned payload view is not the frame's UDP payload",
                   frame};
  }

  const auto ttl = static_cast<std::uint8_t>(frame[kTtlByte]);
  cov.ttl_zero += ttl == 0;
  cov.ttl_one += ttl == 1;
  cov.ttl_max += ttl == 255;
  const auto before = telemetry::int_parse(payload);
  if (!before) {
    ++cov.rejected;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (i == kTtlByte || i == kChecksumByte || i == kChecksumByte + 1) {
        continue;
      }
      if (got[i] != frame[i]) {
        return Failure{"rejected payload: byte " + std::to_string(i) +
                           " changed",
                       frame};
      }
    }
    return std::nullopt;
  }
  ++cov.word_counts[telemetry::int_hop_words(before->md.instructions)];
  if (got.size() > frame.size()) {
    ++cov.pushed;
  } else if (before->md.remaining_hops == 0 &&
             telemetry::int_hop_words(before->md.instructions) != 0) {
    ++cov.exceeded;
    const auto after = telemetry::int_parse(view);
    if (!after || !after->md.exceeded) {
      return Failure{"exhausted hop count did not set the M bit", frame};
    }
  }
  return std::nullopt;
}

TEST(PropIntTransit, InPlaceFrameIsByteIdenticalToRebuildOracle) {
  Coverage cov;
  const auto report = check(
      "int_transit_in_place",
      [&cov](Rng& rng) { return transit_property(rng, cov); }, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  // The generators reach every case the property names.
  EXPECT_GT(cov.pushed, 100u);
  EXPECT_GT(cov.exceeded, 10u);
  EXPECT_GT(cov.rejected, 100u);
  EXPECT_GT(cov.ttl_zero, 10u);
  EXPECT_GT(cov.ttl_one, 10u);
  EXPECT_GT(cov.ttl_max, 10u);
  for (std::size_t words = 0; words < 4; ++words) {
    EXPECT_GT(cov.word_counts[words], 10u) << words << " hop words";
  }
}

}  // namespace
}  // namespace dart::check
