// Reference twins of the header code in src/net: the layered walk that
// net::parse_udp_frame and net::build_udp_frame replaced, and the RFC 1071
// checksum over 16-bit words that net::InternetChecksum sums word-wide.
//
// Each header is parsed and serialized on its own through BufReader and
// BufWriter, one bounds-checked field at a time, and the IPv4 checksum is
// the byte-pair loop. Nothing here calls the production header code, so the
// header property (tests/check/test_prop_headers.cpp) can diff parse
// verdicts, every parsed field, checksums and built frames against it.
// Only tests, the RoCE reference and the golden and corpus generators use
// it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "net/headers.hpp"

namespace dart::check {

// RFC 1071 over big-endian 16-bit words; an odd last byte is the high half
// of a zero-padded word.
[[nodiscard]] std::uint16_t reference_internet_checksum(
    std::span<const std::byte> data) noexcept;

// Per-header parsers over a shared reader: nullopt when the reader runs
// short or the header is malformed.
[[nodiscard]] std::optional<net::EthernetHeader> reference_parse_ethernet(
    BufReader& r);
// Version 4, IHL 5 and a header checksum that verifies.
[[nodiscard]] std::optional<net::Ipv4Header> reference_parse_ipv4(
    BufReader& r);
// UDP length of at least the 8 header bytes.
[[nodiscard]] std::optional<net::UdpHeader> reference_parse_udp(BufReader& r);

// Ethernet, then IPv4 (protocol UDP or TCP), then the L4 header, then a
// payload of the UDP length's worth.
[[nodiscard]] std::optional<net::ParsedUdpFrame> reference_parse_udp_frame(
    std::span<const std::byte> frame);

// Each header, one append per field. The IPv4 header is always options-free
// with flags and fragment offset 0; its checksum is the 16-bit loop's.
void reference_serialize_ethernet(const net::EthernetHeader& h, BufWriter& w);
void reference_serialize_ipv4(const net::Ipv4Header& h, BufWriter& w);
void reference_serialize_udp(const net::UdpHeader& h, BufWriter& w);

// Headers + payload, one append per field; the IPv4 header checksum is the
// 16-bit loop's.
[[nodiscard]] std::vector<std::byte> reference_build_udp_frame(
    const net::UdpFrameSpec& spec, std::span<const std::byte> payload);

}  // namespace dart::check
