// The in-place INT hops against the rebuild oracle (src/check/int_oracle):
//
// - transit: 1000 seeded frames shaped like the fabric's — a HostNode
//   datagram wrapped by the INT source, with 0 to max hops already on the
//   stack — must leave int_transit_push_frame byte-identical to
//   reference_int_transit (copy, int_transit_push, build_udp_frame,
//   reparse). Covers 1-3 hop words, the exhausted hop count (M bit set,
//   nothing pushed), TTL 0/1/255, and payloads int_parse rejects, where
//   only the TTL and the header checksum may change.
// - source: any datagram parse_udp_frame accepts (random ECN, IPv4
//   identification and flags, UDP checksum, 0-1500 payload bytes, bytes
//   after the UDP length) through int_source_push_frame must give
//   reference_int_source's frame (copy, int_source_encap, int_transit_push,
//   rebuild).
// - sink: INT-port frames with 0 to 255 stack words, rejected payloads, a
//   sink that was also the source, stacks at or over the sink's hop limit
//   and DART values too small for the path, through int_sink_owes_hop and
//   int_sink_pop_frame, must match reference_int_sink (copy, int_parse,
//   push, IntStack value, int_sink_decap, rebuild) in the host's frame, the
//   DART value or its absence, the INT overhead and the max queue depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/int_oracle.hpp"
#include "check/property.hpp"
#include "net/checksum.hpp"
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
  auto payload = int_source_encap(
      md, static_cast<std::uint16_t>(rng.below(1u << 16)), inner);
  // Zero pushes up to one past the hop limit.
  const auto pushes = rng.below(std::uint64_t{md.remaining_hops} + 2);
  for (std::uint64_t i = 0; i < pushes; ++i) {
    (void)int_transit_push(payload, gen_hop(rng));
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

// Where two byte strings first differ, for a failure message.
std::string first_difference(std::span<const std::byte> got,
                             std::span<const std::byte> expected) {
  std::size_t off = 0;
  while (off < got.size() && off < expected.size() &&
         got[off] == expected[off]) {
    ++off;
  }
  return "in-place frame (" + std::to_string(got.size()) +
         " B) differs from the oracle's (" + std::to_string(expected.size()) +
         " B) at byte " + std::to_string(off);
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
    return Failure{first_difference(got, expected), frame};
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
  const auto before = int_parse(payload);
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
    const auto after = int_parse(view);
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

// --- source and sink ----------------------------------------------------------

struct EdgeFrame {
  std::vector<std::byte> bytes;
  bool trailing = false;  // bytes after the UDP length
};

// A datagram as any sender may write it around `payload`: random
// addressing, TTL, DSCP and ECN, IPv4 identification and flags, UDP
// checksum, and sometimes bytes after the UDP length. parse_udp_frame
// accepts it.
EdgeFrame gen_edge_frame(Rng& rng, std::span<const std::byte> payload,
                         std::uint16_t dst_port) {
  net::UdpFrameSpec spec;
  spec.src_mac = {0x02, 0x0A, 0, 0, 0, static_cast<std::uint8_t>(rng.below(256))};
  spec.dst_mac = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  spec.src_ip.value = static_cast<std::uint32_t>(rng.u64());
  spec.dst_ip.value = static_cast<std::uint32_t>(rng.u64());
  spec.src_port = static_cast<std::uint16_t>(rng.below(1u << 16));
  spec.dst_port = dst_port;
  spec.ttl = rng.chance(0.5) ? kTtls[rng.below(std::size(kTtls))]
                             : static_cast<std::uint8_t>(rng.below(256));
  spec.dscp = rng.chance(0.2) ? static_cast<std::uint8_t>(rng.below(64)) : 0;
  spec.protocol = rng.chance(0.5) ? net::kIpProtoUdp : 6;
  EdgeFrame out{net::build_udp_frame(spec, payload), false};

  // Header bytes build_udp_frame leaves 0: ECN, identification, flags and
  // fragment offset, the UDP checksum.
  constexpr std::size_t kIp = net::kEthernetHeaderLen;
  constexpr std::size_t kUdpChecksum = kIp + net::kIpv4HeaderLen + 6;
  if (rng.chance(0.5)) {
    auto& b = out.bytes;
    b[kIp + 1] |= static_cast<std::byte>(rng.below(4));
    for (std::size_t i = 4; i < 8; ++i) {
      b[kIp + i] = static_cast<std::byte>(rng.below(256));
    }
    b[kIp + 10] = b[kIp + 11] = std::byte{0};
    const std::uint16_t sum = net::internet_checksum(
        std::span(b).subspan(kIp, net::kIpv4HeaderLen));
    b[kIp + 10] = static_cast<std::byte>(sum >> 8);
    b[kIp + 11] = static_cast<std::byte>(sum & 0xFF);
    b[kUdpChecksum] = static_cast<std::byte>(rng.below(256));
    b[kUdpChecksum + 1] = static_cast<std::byte>(rng.below(256));
  }
  if (rng.chance(0.25)) {
    const auto extra = rng.bytes(1 + rng.below(32));
    out.bytes.insert(out.bytes.end(), extra.begin(), extra.end());
    out.trailing = true;
  }
  return out;
}

// 0 to 1500 inner bytes, with both ends of the range drawn often.
std::vector<std::byte> gen_inner(Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return {};
    case 1:
      return rng.bytes(1500);
    default:
      return rng.bytes(rng.below(1501));
  }
}

struct SourceCoverage {
  std::uint64_t pushed = 0;
  std::uint64_t exceeded = 0;    // remaining-hop-count 0: M bit, no push
  std::uint64_t no_words = 0;    // a bitmap of no supported field
  std::uint64_t trailing = 0;
  std::uint64_t large = 0;       // inner payloads over 1000 bytes
  std::uint64_t ttl_zero = 0;
  std::uint64_t ttl_one = 0;
  std::uint64_t ttl_max = 0;
};

std::optional<Failure> source_property(Rng& rng, SourceCoverage& cov) {
  telemetry::IntMdHeader md;
  md.version = static_cast<std::uint8_t>(rng.below(16));
  md.exceeded = rng.chance(0.1);
  md.remaining_hops = rng.chance(0.2) ? 0 : static_cast<std::uint8_t>(rng.below(256));
  md.instructions = kInstructionSets[rng.below(std::size(kInstructionSets))];
  md.hop_words = rng.chance(0.9) ? telemetry::int_hop_words(md.instructions)
                                 : static_cast<std::uint8_t>(rng.below(256));
  md.domain_id = static_cast<std::uint16_t>(rng.below(1u << 16));
  const auto inner = gen_inner(rng);
  const auto port = static_cast<std::uint16_t>(rng.below(1u << 16));
  const auto frame = gen_edge_frame(rng, inner, port);
  const auto hop = gen_hop(rng);

  const auto expected = reference_int_source(frame.bytes, md, hop);
  if (expected.empty()) return Failure{"oracle produced no frame", frame.bytes};
  net::Packet packet(frame.bytes);
  const auto view = telemetry::int_source_push_frame(packet, md, hop);
  if (!std::ranges::equal(packet.bytes(), expected)) {
    return Failure{first_difference(packet.bytes(), expected), frame.bytes};
  }
  if (!std::ranges::equal(view, net::parse_udp_frame(expected)->payload)) {
    return Failure{"returned payload view is not the frame's UDP payload",
                   frame.bytes};
  }

  const std::size_t words = telemetry::int_hop_words(md.instructions);
  cov.no_words += words == 0;
  cov.exceeded += words != 0 && md.remaining_hops == 0;
  cov.pushed += words != 0 && md.remaining_hops != 0;
  cov.trailing += frame.trailing;
  cov.large += inner.size() > 1000;
  const auto ttl = net::parse_udp_frame(frame.bytes)->ip.ttl;
  cov.ttl_zero += ttl == 0;
  cov.ttl_one += ttl == 1;
  cov.ttl_max += ttl == 255;
  return std::nullopt;
}

TEST(PropIntTransit, InPlaceSourceIsByteIdenticalToRebuildOracle) {
  SourceCoverage cov;
  const auto report = check(
      "int_source_in_place",
      [&cov](Rng& rng) { return source_property(rng, cov); }, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  EXPECT_GT(cov.pushed, 100u);
  EXPECT_GT(cov.exceeded, 10u);
  EXPECT_GT(cov.no_words, 10u);
  EXPECT_GT(cov.trailing, 100u);
  EXPECT_GT(cov.large, 100u);
  EXPECT_GT(cov.ttl_zero, 10u);
  EXPECT_GT(cov.ttl_one, 10u);
  EXPECT_GT(cov.ttl_max, 10u);
}

struct SinkCoverage {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;       // int_parse rejects the payload
  std::uint64_t was_source = 0;     // the newest hop is the sink's own
  std::uint64_t no_room = 0;        // the sink owes its hop but cannot push
  std::uint64_t at_limit = 0;       // int_max_hops hops before the sink's
  std::uint64_t cut = 0;            // more hops than int_max_hops
  std::uint64_t no_value = 0;       // the path does not fit value_bytes
  std::uint64_t long_stack = 0;     // over 200 stack words
  std::uint64_t trailing = 0;
  std::uint64_t large = 0;
  std::uint64_t ttl_zero = 0;
  std::uint64_t ttl_one = 0;
  std::uint64_t ttl_max = 0;
  std::uint64_t word_counts[4] = {};
};

std::optional<Failure> sink_property(Rng& rng, SinkCoverage& cov) {
  const std::uint32_t wire_id =
      rng.chance(0.05) ? 0 : static_cast<std::uint32_t>(1 + rng.below(1u << 16));
  const auto max_hops = static_cast<std::uint32_t>(
      rng.chance(0.8) ? rng.below(9) : rng.below(256));
  const auto value_bytes = static_cast<std::uint32_t>(1 + rng.below(40));

  // The stack the sink finds: up to the remaining-hop-count and one push
  // past it, sometimes exactly int_max_hops hops, and up to the 255 words
  // the shim can count; the last push is sometimes the sink's own (it was
  // the source).
  telemetry::IntMdHeader md;
  md.remaining_hops = static_cast<std::uint8_t>(
      rng.chance(0.15) ? 255 : rng.below(9));
  md.instructions = kInstructionSets[rng.below(std::size(kInstructionSets))];
  md.hop_words = telemetry::int_hop_words(md.instructions);
  auto payload = int_source_encap(
      md, static_cast<std::uint16_t>(rng.below(1u << 16)), gen_inner(rng));
  const auto pushes = rng.chance(0.2)
                          ? std::uint64_t{max_hops}
                          : rng.below(std::uint64_t{md.remaining_hops} + 2);
  const bool was_source = rng.chance(0.3);
  for (std::uint64_t i = 0; i < pushes; ++i) {
    auto hop = gen_hop(rng);
    if (was_source && i + 1 == pushes) hop.switch_id = wire_id;
    (void)int_transit_push(payload, hop);
  }
  switch (rng.below(10)) {
    case 0:  // truncated anywhere, the headers included
      payload.resize(rng.below(payload.size() + 1));
      break;
    case 1:  // not our shim type
      payload[0] = static_cast<std::byte>(2 + rng.below(254));
      break;
    case 2:  // a stack word count the payload may not match
      payload[1] = static_cast<std::byte>(rng.below(256));
      break;
    case 3:  // no INT at all, on the INT port
      payload = rng.bytes(rng.below(64));
      break;
    default:
      break;
  }
  const auto frame = gen_edge_frame(rng, payload, telemetry::kIntUdpPort);
  const auto own_hop = gen_hop(rng);

  const auto expected =
      reference_int_sink(frame.bytes, wire_id, own_hop, max_hops, value_bytes);
  net::Packet packet(frame.bytes);
  const auto owes = telemetry::int_sink_owes_hop(
      net::parse_udp_frame(frame.bytes)->payload, wire_id);
  if (owes.has_value() != expected.accepted) {
    return Failure{owes ? "accepted a payload int_parse rejects"
                        : "rejected a payload int_parse accepts",
                   frame.bytes};
  }
  if (owes && *owes != expected.own_hop_sampled) {
    return Failure{"owes its hop: " + std::to_string(*owes) + ", oracle " +
                       std::to_string(expected.own_hop_sampled),
                   frame.bytes};
  }
  // The value buffer starts dirty: a written value must cover all of it.
  std::vector<std::byte> value(value_bytes, std::byte{0xEE});
  telemetry::IntSinkResult got;
  if (owes) {
    std::optional<telemetry::IntHopMetadata> own;
    if (*owes) own = own_hop;
    got = telemetry::int_sink_pop_frame(packet, own, max_hops, value);
  }
  if (!std::ranges::equal(packet.bytes(), expected.host_frame)) {
    return Failure{"host frame: " + first_difference(packet.bytes(),
                                                     expected.host_frame),
                   frame.bytes};
  }
  if (!expected.accepted) {
    ++cov.rejected;
    return std::nullopt;
  }
  if (got.value_written != expected.value.has_value()) {
    return Failure{got.value_written ? "wrote a value the oracle has not"
                                     : "wrote no value, the oracle did",
                   frame.bytes};
  }
  if (got.value_written && !std::ranges::equal(value, *expected.value)) {
    return Failure{"DART value differs from the oracle's", frame.bytes};
  }
  if (got.overhead_bytes != expected.overhead_bytes) {
    return Failure{"overhead " + std::to_string(got.overhead_bytes) +
                       " B, oracle " + std::to_string(expected.overhead_bytes),
                   frame.bytes};
  }
  if (got.max_queue_depth != expected.max_queue_depth) {
    return Failure{"max queue depth " + std::to_string(got.max_queue_depth) +
                       ", oracle " + std::to_string(expected.max_queue_depth),
                   frame.bytes};
  }

  ++cov.accepted;
  const auto before = int_parse(payload);
  const std::size_t words = telemetry::int_hop_words(md.instructions);
  const std::size_t hops_before = before->hops.size();
  const std::size_t hops_after = (expected.overhead_bytes - 12) / 4 /
                                 std::max<std::size_t>(words, 1);
  ++cov.word_counts[words];
  cov.was_source += *owes == false;
  cov.no_room += *owes && words != 0 && hops_after == hops_before;
  cov.at_limit += max_hops != 0 && hops_before == max_hops;
  cov.cut += hops_after > max_hops;
  cov.no_value += !expected.value.has_value();
  cov.long_stack += static_cast<std::uint8_t>(payload[1]) > 200;
  cov.trailing += frame.trailing;
  cov.large += before->inner_payload.size() > 1000;
  const auto ttl = net::parse_udp_frame(frame.bytes)->ip.ttl;
  cov.ttl_zero += ttl == 0;
  cov.ttl_one += ttl == 1;
  cov.ttl_max += ttl == 255;
  return std::nullopt;
}

TEST(PropIntTransit, InPlaceSinkMatchesRebuildOracle) {
  SinkCoverage cov;
  const auto report = check(
      "int_sink_in_place",
      [&cov](Rng& rng) { return sink_property(rng, cov); }, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  EXPECT_GT(cov.accepted, 300u);
  EXPECT_GT(cov.rejected, 100u);
  EXPECT_GT(cov.was_source, 50u);
  EXPECT_GT(cov.no_room, 10u);
  EXPECT_GT(cov.at_limit, 30u);
  EXPECT_GT(cov.cut, 10u);
  EXPECT_GT(cov.no_value, 50u);
  EXPECT_GT(cov.long_stack, 10u);
  EXPECT_GT(cov.trailing, 50u);
  EXPECT_GT(cov.large, 50u);
  EXPECT_GT(cov.ttl_zero, 10u);
  EXPECT_GT(cov.ttl_one, 10u);
  EXPECT_GT(cov.ttl_max, 10u);
  for (std::size_t words = 0; words < 4; ++words) {
    EXPECT_GT(cov.word_counts[words], 10u) << words << " hop words";
  }
}

}  // namespace
}  // namespace dart::check
