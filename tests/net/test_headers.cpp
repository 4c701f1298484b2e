// Tests for Ethernet/IPv4/UDP header serialization, parsing and validation.
// The per-header parse cases run the layered reference parsers in
// src/check/reference_headers; the frame cases run the production code.
#include "net/headers.hpp"

#include <gtest/gtest.h>

#include <array>

#include "check/reference_headers.hpp"

namespace dart::net {
namespace {

using check::reference_parse_ethernet;
using check::reference_parse_ipv4;
using check::reference_parse_udp;

TEST(Ipv4Addr, OctetsAndString) {
  const auto a = Ipv4Addr::from_octets(10, 0, 100, 7);
  EXPECT_EQ(a.value, 0x0A006407u);
  EXPECT_EQ(a.str(), "10.0.100.7");
}

TEST(MacAddr, ToString) {
  const MacAddr mac{0x02, 0xAB, 0x00, 0x01, 0x02, 0x03};
  EXPECT_EQ(to_string(mac), "02:ab:00:01:02:03");
}

TEST(Ethernet, RoundTrip) {
  EthernetHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {7, 8, 9, 10, 11, 12};
  h.ether_type = kEtherTypeIpv4;

  std::vector<std::byte> buf;
  BufWriter w(buf);
  check::reference_serialize_ethernet(h, w);
  ASSERT_EQ(buf.size(), kEthernetHeaderLen);

  BufReader r(buf);
  const auto parsed = reference_parse_ethernet(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->ether_type, kEtherTypeIpv4);
}

TEST(Ethernet, TruncatedFails) {
  std::vector<std::byte> buf(10);
  BufReader r(buf);
  EXPECT_FALSE(reference_parse_ethernet(r).has_value());
}

TEST(Ipv4, RoundTripWithValidChecksum) {
  Ipv4Header h;
  h.dscp = 12;
  h.total_length = 48;
  h.identification = 0x42;
  h.ttl = 17;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Addr::from_octets(192, 168, 0, 1);
  h.dst = Ipv4Addr::from_octets(10, 0, 0, 2);

  std::array<std::byte, kIpv4HeaderLen> buf;
  h.write(buf);

  BufReader r(buf);
  const auto parsed = reference_parse_ipv4(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dscp, 12);
  EXPECT_EQ(parsed->total_length, 48);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
}

TEST(Ipv4, SerializesKnownBytes) {
  Ipv4Header h;
  h.dscp = 12;
  h.total_length = 48;
  h.identification = 0x42;
  h.ttl = 17;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Addr::from_octets(192, 168, 0, 1);
  h.dst = Ipv4Addr::from_octets(10, 0, 0, 2);

  // Written into the middle of a buffer: the bytes around it stay.
  std::vector<std::byte> buf(1 + kIpv4HeaderLen + 1, std::byte{0xAB});
  h.write(std::span(buf).subspan<1, kIpv4HeaderLen>());
  // version/IHL, DSCP, total length, id, flags/fragment 0, TTL, protocol,
  // RFC 1071 header checksum, source, destination.
  const std::vector<std::uint8_t> expected = {
      0xAB, 0x45, 0x30, 0x00, 0x30, 0x00, 0x42, 0x00, 0x00, 0x11, 0x11, 0xDE,
      0xA0, 0xC0, 0xA8, 0x00, 0x01, 0x0A, 0x00, 0x00, 0x02, 0xAB};
  ASSERT_EQ(buf.size(), expected.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(buf[i]), expected[i]) << "byte " << i;
  }
}

TEST(Ipv4, CorruptedHeaderRejectedByChecksum) {
  Ipv4Header h;
  h.total_length = 28;
  std::array<std::byte, kIpv4HeaderLen> buf;
  h.write(buf);
  buf[8] = std::byte{99};  // flip the TTL after checksumming
  BufReader r(buf);
  EXPECT_FALSE(reference_parse_ipv4(r).has_value());
}

TEST(Ipv4, NonVersion4Rejected) {
  Ipv4Header h;
  std::array<std::byte, kIpv4HeaderLen> buf;
  h.write(buf);
  buf[0] = std::byte{0x65};  // version 6
  BufReader r(buf);
  EXPECT_FALSE(reference_parse_ipv4(r).has_value());
}

TEST(Udp, RoundTrip) {
  UdpHeader h;
  h.src_port = 49152;
  h.dst_port = kRoceV2UdpPort;
  h.length = 36;
  std::array<std::byte, kUdpHeaderLen> buf;
  h.write(buf);

  BufReader r(buf);
  const auto parsed = reference_parse_udp(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 49152);
  EXPECT_EQ(parsed->dst_port, kRoceV2UdpPort);
  EXPECT_EQ(parsed->length, 36);
}

TEST(Udp, LengthBelowHeaderRejected) {
  UdpHeader h;
  h.length = 4;  // impossible: < 8
  std::array<std::byte, kUdpHeaderLen> buf;
  h.write(buf);
  BufReader r(buf);
  EXPECT_FALSE(reference_parse_udp(r).has_value());
}

// --- full frame helpers -------------------------------------------------------

UdpFrameSpec test_spec() {
  UdpFrameSpec spec;
  spec.src_mac = {1, 1, 1, 1, 1, 1};
  spec.dst_mac = {2, 2, 2, 2, 2, 2};
  spec.src_ip = Ipv4Addr::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Addr::from_octets(10, 0, 0, 2);
  spec.src_port = 1234;
  spec.dst_port = 4791;
  return spec;
}

TEST(UdpFrame, BuildAndParse) {
  std::vector<std::byte> payload{std::byte{0xAA}, std::byte{0xBB},
                                 std::byte{0xCC}};
  const auto frame = build_udp_frame(test_spec(), payload);
  EXPECT_EQ(frame.size(),
            kEthernetHeaderLen + kIpv4HeaderLen + kUdpHeaderLen + 3);

  const auto parsed = parse_udp_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.src, test_spec().src_ip);
  EXPECT_EQ(parsed->udp.dst_port, 4791);
  ASSERT_EQ(parsed->payload.size(), 3u);
  EXPECT_EQ(static_cast<std::uint8_t>(parsed->payload[0]), 0xAA);
}

TEST(UdpFrame, LengthsAreConsistent) {
  std::vector<std::byte> payload(100, std::byte{7});
  const auto frame = build_udp_frame(test_spec(), payload);
  const auto parsed = parse_udp_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.total_length, kIpv4HeaderLen + kUdpHeaderLen + 100);
  EXPECT_EQ(parsed->udp.length, kUdpHeaderLen + 100);
}

TEST(UdpFrame, EmptyPayload) {
  const auto frame = build_udp_frame(test_spec(), {});
  const auto parsed = parse_udp_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(UdpFrame, TruncatedFrameRejected) {
  std::vector<std::byte> payload(10, std::byte{1});
  auto frame = build_udp_frame(test_spec(), payload);
  frame.resize(frame.size() - 5);  // cut off part of the payload
  EXPECT_FALSE(parse_udp_frame(frame).has_value());
}

TEST(UdpFrame, NonIpv4EtherTypeRejected) {
  auto frame = build_udp_frame(test_spec(), {});
  frame[12] = std::byte{0x86};  // 0x86DD = IPv6
  frame[13] = std::byte{0xDD};
  EXPECT_FALSE(parse_udp_frame(frame).has_value());
}

TEST(UdpFrame, SimplifiedTcpFramesParse) {
  // The simulator frames TCP with the same 8-byte L4 header (see
  // UdpFrameSpec::protocol); such frames must round-trip.
  auto spec = test_spec();
  spec.protocol = 6;
  const auto frame = build_udp_frame(spec, {});
  const auto parsed = parse_udp_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.protocol, 6);
}

TEST(UdpFrame, UnknownProtocolRejected) {
  auto spec = test_spec();
  spec.protocol = 1;  // ICMP — not a 5-tuple transport
  const auto frame = build_udp_frame(spec, {});
  EXPECT_FALSE(parse_udp_frame(frame).has_value());
}

// Parameterized sweep over payload sizes (header arithmetic edge cases).
class FramePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FramePayloadSizes, RoundTrips) {
  std::vector<std::byte> payload(GetParam(), std::byte{0x5A});
  const auto frame = build_udp_frame(test_spec(), payload);
  const auto parsed = parse_udp_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, FramePayloadSizes,
                         ::testing::Values(0u, 1u, 2u, 35u, 36u, 100u, 1000u,
                                           1400u));

}  // namespace
}  // namespace dart::net
