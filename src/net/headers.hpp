// Wire headers for the simulated fabric: Ethernet II, IPv4, UDP.
//
// RoCEv2 reports crafted by DART switches are UDP datagrams (dst port 4791)
// carried over IPv4/Ethernet (§6). Header structs here are *parsed forms*.
// Every frame of the simulator has one layout (Ethernet II, options-free
// IPv4, an 8-byte L4 header), so build_udp_frame and parse_udp_frame write
// and read it at constant offsets, byte by byte in network order: no
// packed-struct aliasing, endian-correct by construction. The layered
// per-header walk they replaced is the reference in
// src/check/reference_headers.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace dart::net {

using MacAddr = std::array<std::uint8_t, 6>;

[[nodiscard]] std::string to_string(const MacAddr& mac);

// IPv4 address as host-order integer with dotted-quad helpers.
struct Ipv4Addr {
  std::uint32_t value = 0;  // host order

  [[nodiscard]] static Ipv4Addr from_octets(std::uint8_t a, std::uint8_t b,
                                            std::uint8_t c, std::uint8_t d) noexcept {
    return Ipv4Addr{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                    (std::uint32_t{c} << 8) | std::uint32_t{d}};
  }
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Ipv4Addr&, const Ipv4Addr&) = default;
};

// ---------------------------------------------------------------------------
// Ethernet II
// ---------------------------------------------------------------------------

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::size_t kEthernetHeaderLen = 14;

struct EthernetHeader {
  MacAddr dst{};
  MacAddr src{};
  std::uint16_t ether_type = kEtherTypeIpv4;
};

// ---------------------------------------------------------------------------
// IPv4 (no options)
// ---------------------------------------------------------------------------

inline constexpr std::uint8_t kIpProtoUdp = 17;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::size_t kIpv4HeaderLen = 20;

struct Ipv4Header {
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // header + payload
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  std::uint16_t checksum = 0;  // ignored by write(): it computes its own
  Ipv4Addr src{};
  Ipv4Addr dst{};

  // The one IPv4 header writer: the 20 bytes with a correct header checksum
  // (flags and fragment offset 0).
  void write(std::span<std::byte, kIpv4HeaderLen> out) const noexcept;
};

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

inline constexpr std::size_t kUdpHeaderLen = 8;
inline constexpr std::uint16_t kRoceV2UdpPort = 4791;  // IANA RoCEv2

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;    // header + payload
  std::uint16_t checksum = 0;  // 0 = not computed (legal for UDP/IPv4; RoCEv2
                               // relies on the iCRC instead)

  // The one UDP header writer: the 8 bytes, fields as they are.
  void write(std::span<std::byte, kUdpHeaderLen> out) const noexcept;
};

// ---------------------------------------------------------------------------
// Convenience: build / crack a full Ethernet+IPv4+UDP frame around a payload.
// ---------------------------------------------------------------------------

struct UdpFrameSpec {
  MacAddr src_mac{};
  MacAddr dst_mac{};
  Ipv4Addr src_ip{};
  Ipv4Addr dst_ip{};
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t ttl = 64;
  std::uint8_t dscp = 0;
  // Simplification: the simulator frames TCP segments (protocol 6) with the
  // same 8-byte L4 header as UDP (ports, length, checksum) — byte-stream
  // semantics are out of scope; telemetry only needs the 5-tuple.
  std::uint8_t protocol = kIpProtoUdp;
};

// Ethernet + IPv4 + L4 header bytes in front of every payload.
inline constexpr std::size_t kUdpFrameHeaderLen =
    kEthernetHeaderLen + kIpv4HeaderLen + kUdpHeaderLen;

// Serializes headers + payload into wire bytes.
[[nodiscard]] std::vector<std::byte> build_udp_frame(
    const UdpFrameSpec& spec, std::span<const std::byte> payload);

// The same bytes, written into the first kUdpFrameHeaderLen +
// payload.size() bytes of `out`, which must hold them; the bytes past those
// are left alone.
void build_udp_frame_into(const UdpFrameSpec& spec,
                          std::span<const std::byte> payload,
                          std::span<std::byte> out) noexcept;

struct ParsedUdpFrame {
  EthernetHeader eth;
  Ipv4Header ip;
  UdpHeader udp;
  std::span<const std::byte> payload;  // view into the input buffer
};

// The acceptance rule of every Ethernet+IPv4+UDP frame the simulator
// reads: the frame holds the 42 header bytes, the ethertype is 0x0800, the
// version/IHL byte is 0x45, the IPv4 header checksum is valid, the protocol
// is UDP or (simplified) TCP, and the UDP length is at least 8 and within
// the frame. Returns the payload length, the UDP length's worth (the
// payload starts at kUdpFrameHeaderLen; trailing bytes are ignored), or
// nullopt for a frame the rule refuses. The RNIC's receive path reads only
// this; parse_udp_frame fills its struct behind it.
[[nodiscard]] std::optional<std::size_t> udp_payload_length(
    std::span<const std::byte> frame) noexcept;

// Parses a frame udp_payload_length accepts into its header fields; nullopt
// for any other.
[[nodiscard]] std::optional<ParsedUdpFrame> parse_udp_frame(
    std::span<const std::byte> frame) noexcept;

}  // namespace dart::net
