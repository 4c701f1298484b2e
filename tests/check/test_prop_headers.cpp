// The fixed-offset header code in src/net against the layered reference in
// src/check/reference_headers:
//
// - parse: net::parse_udp_frame must agree with reference_parse_udp_frame on
//   acceptance and, when both accept, on every field and the payload view.
//   Each case builds a UDP or TCP frame (random addresses, ports, DSCP, TTL,
//   0-1500 payload bytes) and then, by kind: leaves it whole; mutates each
//   of the 42 header bytes in turn, with the IPv4 checksum left stale or
//   made valid again; damages the header checksum; sweeps every protocol
//   value; sweeps the UDP length over 0-7, exact, one past and far past the
//   frame; cuts the frame at every length; or appends trailing bytes.
// - checksum: net::InternetChecksum, fed 0-1500 bytes in random chunks that
//   split at even offsets (the last chunk odd when the length is), must give
//   reference_internet_checksum over the whole span; so must
//   net::internet_checksum in one call.
// - build: net::build_udp_frame, and build_udp_frame_into on a larger
//   buffer, must give reference_build_udp_frame's bytes for random DSCP
//   0-63, TTL 0-255, protocol 6 or 17 and payloads of 0-1500 bytes; the
//   buffer form leaves the bytes past the frame alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "check/reference_headers.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"

namespace dart::check {
namespace {

constexpr std::size_t kIp = net::kEthernetHeaderLen;
constexpr std::size_t kL4 = kIp + net::kIpv4HeaderLen;

net::MacAddr gen_mac(Rng& rng) {
  net::MacAddr mac{};
  const auto b = rng.bytes(mac.size());
  std::ranges::transform(b, mac.begin(), [](std::byte x) {
    return std::to_integer<std::uint8_t>(x);
  });
  return mac;
}

net::UdpFrameSpec gen_spec(Rng& rng) {
  net::UdpFrameSpec spec;
  spec.src_mac = gen_mac(rng);
  spec.dst_mac = gen_mac(rng);
  spec.src_ip.value = static_cast<std::uint32_t>(rng.u64());
  spec.dst_ip.value = static_cast<std::uint32_t>(rng.u64());
  spec.src_port = static_cast<std::uint16_t>(rng.u64());
  spec.dst_port = static_cast<std::uint16_t>(rng.u64());
  spec.ttl = static_cast<std::uint8_t>(rng.below(256));
  spec.dscp = static_cast<std::uint8_t>(rng.below(64));
  spec.protocol = rng.chance(0.5) ? net::kIpProtoTcp : net::kIpProtoUdp;
  return spec;
}

// 0-1500 bytes, a third of them short enough that the headers dominate.
std::vector<std::byte> gen_payload(Rng& rng) {
  const std::size_t n = rng.chance(0.34) ? rng.below(16) : rng.below(1501);
  return rng.bytes(n);
}

void put16(std::vector<std::byte>& f, std::size_t at, std::uint16_t v) {
  f[at] = static_cast<std::byte>(v >> 8);
  f[at + 1] = static_cast<std::byte>(v & 0xFF);
}

// Makes the IPv4 header checksum of a frame of at least 34 bytes valid.
void fix_ip_checksum(std::vector<std::byte>& f) {
  put16(f, kIp + 10, 0);
  put16(f, kIp + 10,
        reference_internet_checksum(
            std::span(f).subspan(kIp, net::kIpv4HeaderLen)));
}

// Where production and reference disagree on `frame`, or nullopt.
std::optional<std::string> parse_mismatch(std::span<const std::byte> frame) {
  const auto got = net::parse_udp_frame(frame);
  const auto want = reference_parse_udp_frame(frame);
  if (got.has_value() != want.has_value()) {
    return std::string(got ? "accepted" : "rejected") + " a " +
           std::to_string(frame.size()) + "-byte frame the reference " +
           (want ? "accepts" : "rejects");
  }
  if (!got) return std::nullopt;
  const auto field = [](const char* name) {
    return std::optional<std::string>(std::string("field ") + name +
                                      " differs");
  };
  if (got->eth.dst != want->eth.dst) return field("eth.dst");
  if (got->eth.src != want->eth.src) return field("eth.src");
  if (got->eth.ether_type != want->eth.ether_type) return field("ether_type");
  if (got->ip.dscp != want->ip.dscp) return field("ip.dscp");
  if (got->ip.total_length != want->ip.total_length) {
    return field("ip.total_length");
  }
  if (got->ip.identification != want->ip.identification) {
    return field("ip.identification");
  }
  if (got->ip.ttl != want->ip.ttl) return field("ip.ttl");
  if (got->ip.protocol != want->ip.protocol) return field("ip.protocol");
  if (got->ip.checksum != want->ip.checksum) return field("ip.checksum");
  if (got->ip.src != want->ip.src) return field("ip.src");
  if (got->ip.dst != want->ip.dst) return field("ip.dst");
  if (got->udp.src_port != want->udp.src_port) return field("udp.src_port");
  if (got->udp.dst_port != want->udp.dst_port) return field("udp.dst_port");
  if (got->udp.length != want->udp.length) return field("udp.length");
  if (got->udp.checksum != want->udp.checksum) return field("udp.checksum");
  if (got->payload.data() != want->payload.data() ||
      got->payload.size() != want->payload.size()) {
    return field("payload");
  }
  return std::nullopt;
}

enum class Damage : std::uint8_t {
  kNone,
  kEachHeaderByte,
  kBadChecksum,
  kEveryProtocol,
  kUdpLength,
  kEveryTruncation,
  kTrailingBytes,
  kCount,
};

struct ParseCoverage {
  std::uint64_t accepted = 0;
  std::uint64_t accepted_tcp = 0;
  std::uint64_t rejected = 0;
  std::uint64_t by_damage[static_cast<int>(Damage::kCount)] = {};
};

std::optional<Failure> parse_property(Rng& rng, ParseCoverage& cov) {
  const auto base = reference_build_udp_frame(gen_spec(rng), gen_payload(rng));
  const auto damage =
      static_cast<Damage>(rng.below(static_cast<int>(Damage::kCount)));
  ++cov.by_damage[static_cast<int>(damage)];

  std::optional<Failure> failure;
  const auto diff = [&cov, &failure](std::span<const std::byte> frame) {
    if (failure) return;
    if (const auto accepted = reference_parse_udp_frame(frame)) {
      ++cov.accepted;
      cov.accepted_tcp += accepted->ip.protocol == net::kIpProtoTcp;
    } else {
      ++cov.rejected;
    }
    if (auto why = parse_mismatch(frame)) {
      failure = Failure{*why, {frame.begin(), frame.end()}};
    }
  };

  switch (damage) {
    case Damage::kNone:
      diff(base);
      break;
    case Damage::kEachHeaderByte: {
      const bool refix = rng.chance(0.5);
      for (std::size_t i = 0; i < net::kUdpFrameHeaderLen; ++i) {
        auto f = base;
        f[i] ^= static_cast<std::byte>(rng.range(1, 255));
        if (refix && i != kIp + 10 && i != kIp + 11) fix_ip_checksum(f);
        diff(f);
      }
      break;
    }
    case Damage::kBadChecksum: {
      auto f = base;
      f[kIp + 10 + rng.below(2)] ^= static_cast<std::byte>(rng.range(1, 255));
      diff(f);
      break;
    }
    case Damage::kEveryProtocol:
      for (unsigned p = 0; p < 256; ++p) {
        auto f = base;
        f[kIp + 9] = static_cast<std::byte>(p);
        fix_ip_checksum(f);
        diff(f);
      }
      break;
    case Damage::kUdpLength: {
      const std::size_t exact = base.size() - net::kEthernetHeaderLen -
                                net::kIpv4HeaderLen;
      std::vector<std::size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, exact,
                                          exact + 1, exact + 1 + rng.below(64),
                                          0xFFFF};
      if (exact > 8) lengths.push_back(exact - 1);
      for (const std::size_t len : lengths) {
        auto f = base;
        put16(f, kL4 + 4, static_cast<std::uint16_t>(std::min<std::size_t>(
                              len, 0xFFFF)));
        diff(f);
      }
      break;
    }
    case Damage::kEveryTruncation:
      for (std::size_t n = 0; n <= base.size(); ++n) {
        diff(std::span(base).first(n));
      }
      break;
    case Damage::kTrailingBytes: {
      auto f = base;
      const auto tail = rng.bytes(rng.range(1, 64));
      f.insert(f.end(), tail.begin(), tail.end());
      diff(f);
      break;
    }
    case Damage::kCount:
      break;
  }
  return failure;
}

TEST(PropHeaders, ParseAgreesWithLayeredReference) {
  ParseCoverage cov;
  const auto report = check(
      "header_parse_vs_reference",
      [&cov](Rng& rng) { return parse_property(rng, cov); }, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  EXPECT_GT(cov.accepted, 1000u);
  EXPECT_GT(cov.accepted_tcp, 500u);
  EXPECT_GT(cov.rejected, 1000u);
  for (const auto n : cov.by_damage) EXPECT_GT(n, 50u);
}

std::optional<Failure> checksum_property(Rng& rng, std::uint64_t& odd_tails) {
  const std::size_t n = rng.below(1501);
  std::vector<std::byte> data;
  switch (rng.below(4)) {
    case 0:
      data = rng.bytes(n);
      break;
    case 1:  // all zero: the sum is 0 and the checksum 0xFFFF
      data.assign(n, std::byte{0});
      break;
    case 2:  // all ones: sums that fold to 0xFFFF
      data.assign(n, std::byte{0xFF});
      break;
    default: {  // mostly ones, so the folds carry
      data.assign(n, std::byte{0xFF});
      for (std::size_t i = 0; i < n / 64; ++i) {
        data[rng.below(n)] = static_cast<std::byte>(rng.u64());
      }
      break;
    }
  }

  net::InternetChecksum acc;
  std::size_t at = 0;
  while (at < n) {
    // Even-sized chunks, often not a multiple of 4, then what is left.
    std::size_t len = 2 * rng.below(40);
    if (len == 0 || at + len > n || rng.chance(0.05)) len = n - at;
    acc.add(std::span(data).subspan(at, len));
    at += len;
  }
  odd_tails += n % 2;
  const std::uint16_t want = reference_internet_checksum(data);
  if (acc.finish() != want || net::internet_checksum(data) != want) {
    return Failure{"checksum of " + std::to_string(n) + " bytes: chunked " +
                       std::to_string(acc.finish()) + ", whole " +
                       std::to_string(net::internet_checksum(data)) +
                       ", reference " + std::to_string(want),
                   data};
  }
  return std::nullopt;
}

TEST(PropHeaders, WordWideChecksumEqualsSixteenBitReference) {
  std::uint64_t odd_tails = 0;
  const auto report = check(
      "internet_checksum_vs_reference",
      [&odd_tails](Rng& rng) { return checksum_property(rng, odd_tails); },
      {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
  EXPECT_GT(odd_tails, 300u);
}

std::optional<Failure> build_property(Rng& rng) {
  const auto spec = gen_spec(rng);
  const auto payload = gen_payload(rng);
  const auto want = reference_build_udp_frame(spec, payload);

  const auto got = net::build_udp_frame(spec, payload);
  if (got != want) {
    return Failure{"build_udp_frame differs from the reference", got};
  }
  std::vector<std::byte> buffer(want.size() + 16, std::byte{0xEE});
  net::build_udp_frame_into(spec, payload, buffer);
  if (!std::ranges::equal(std::span(buffer).first(want.size()), want)) {
    return Failure{"build_udp_frame_into differs from the reference", buffer};
  }
  if (std::ranges::any_of(std::span(buffer).subspan(want.size()),
                          [](std::byte b) { return b != std::byte{0xEE}; })) {
    return Failure{"build_udp_frame_into wrote past the frame", buffer};
  }
  return std::nullopt;
}

TEST(PropHeaders, BuildIsByteIdenticalToReference) {
  const auto report = check("build_udp_frame_vs_reference", build_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
