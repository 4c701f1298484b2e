#include "net/headers.hpp"

#include <cstdio>
#include <cstring>

#include "net/checksum.hpp"

namespace dart::net {

std::string to_string(const MacAddr& mac) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", mac[0],
                mac[1], mac[2], mac[3], mac[4], mac[5]);
  return buf;
}

std::string Ipv4Addr::str() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xFF,
                (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF);
  return buf;
}

namespace {

// Offsets of the fixed layout: Ethernet II, options-free IPv4, 8-byte L4.
constexpr std::size_t kIp = kEthernetHeaderLen;
constexpr std::size_t kL4 = kIp + kIpv4HeaderLen;

}  // namespace

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

void Ipv4Header::write(
    std::span<std::byte, kIpv4HeaderLen> out) const noexcept {
  std::byte* p = out.data();
  p[0] = std::byte{0x45};  // version 4, IHL 5
  p[1] = static_cast<std::byte>(dscp << 2);
  store_be16(p + 2, total_length);
  store_be16(p + 4, identification);
  store_be16(p + 6, 0);  // flags + fragment offset: DF not modeled
  p[8] = static_cast<std::byte>(ttl);
  p[9] = static_cast<std::byte>(protocol);
  store_be16(p + 10, 0);
  store_be32(p + 12, src.value);
  store_be32(p + 16, dst.value);
  store_be16(p + 10, internet_checksum(out));
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

void UdpHeader::write(std::span<std::byte, kUdpHeaderLen> out) const noexcept {
  store_be16(out.data(), src_port);
  store_be16(out.data() + 2, dst_port);
  store_be16(out.data() + 4, length);
  store_be16(out.data() + 6, checksum);
}

// ---------------------------------------------------------------------------
// Frame helpers
// ---------------------------------------------------------------------------

std::vector<std::byte> build_udp_frame(const UdpFrameSpec& spec,
                                       std::span<const std::byte> payload) {
  std::vector<std::byte> out(kUdpFrameHeaderLen + payload.size());
  build_udp_frame_into(spec, payload, out);
  return out;
}

void build_udp_frame_into(const UdpFrameSpec& spec,
                          std::span<const std::byte> payload,
                          std::span<std::byte> out) noexcept {
  std::byte* p = out.data();
  std::memcpy(p, spec.dst_mac.data(), spec.dst_mac.size());
  std::memcpy(p + 6, spec.src_mac.data(), spec.src_mac.size());
  store_be16(p + 12, kEtherTypeIpv4);

  Ipv4Header ip;
  ip.dscp = spec.dscp;
  ip.total_length = static_cast<std::uint16_t>(kIpv4HeaderLen + kUdpHeaderLen +
                                               payload.size());
  ip.ttl = spec.ttl;
  ip.protocol = spec.protocol;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  ip.write(out.subspan<kIp, kIpv4HeaderLen>());

  UdpHeader udp;
  udp.src_port = spec.src_port;
  udp.dst_port = spec.dst_port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderLen + payload.size());
  udp.checksum = 0;  // RoCEv2 uses the iCRC; UDP checksum 0 is legal on IPv4
  udp.write(out.subspan<kL4, kUdpHeaderLen>());

  if (!payload.empty()) {
    std::memcpy(p + kUdpFrameHeaderLen, payload.data(), payload.size());
  }
}

std::optional<std::size_t> udp_payload_length(
    std::span<const std::byte> frame) noexcept {
  if (frame.size() < kUdpFrameHeaderLen) return std::nullopt;
  const std::byte* p = frame.data();
  if (load_be16(p + 12) != kEtherTypeIpv4 || p[kIp] != std::byte{0x45}) {
    return std::nullopt;
  }
  // UDP and (simplified) TCP both carry the uniform 8-byte L4 header in this
  // simulator; anything else is not parseable here.
  const auto protocol = std::to_integer<std::uint8_t>(p[kIp + 9]);
  if (protocol != kIpProtoUdp && protocol != kIpProtoTcp) return std::nullopt;
  const std::uint16_t udp_length = load_be16(p + kL4 + 4);
  if (udp_length < kUdpHeaderLen ||
      udp_length - kUdpHeaderLen > frame.size() - kUdpFrameHeaderLen) {
    return std::nullopt;
  }
  // A header summed with its own checksum folds to zero.
  if (internet_checksum(frame.subspan<kIp, kIpv4HeaderLen>()) != 0) {
    return std::nullopt;
  }
  return udp_length - kUdpHeaderLen;
}

std::optional<ParsedUdpFrame> parse_udp_frame(
    std::span<const std::byte> frame) noexcept {
  const auto payload_len = udp_payload_length(frame);
  if (!payload_len) return std::nullopt;
  const std::byte* p = frame.data();

  // Filled in place, not built on the stack and copied into the optional:
  // every switch hop parses a frame.
  std::optional<ParsedUdpFrame> out(std::in_place);
  ParsedUdpFrame& parsed = *out;
  std::memcpy(parsed.eth.dst.data(), p, parsed.eth.dst.size());
  std::memcpy(parsed.eth.src.data(), p + 6, parsed.eth.src.size());
  parsed.eth.ether_type = kEtherTypeIpv4;
  parsed.ip.dscp = std::to_integer<std::uint8_t>(p[kIp + 1] >> 2);
  parsed.ip.total_length = load_be16(p + kIp + 2);
  parsed.ip.identification = load_be16(p + kIp + 4);
  parsed.ip.ttl = std::to_integer<std::uint8_t>(p[kIp + 8]);
  parsed.ip.protocol = std::to_integer<std::uint8_t>(p[kIp + 9]);
  parsed.ip.checksum = load_be16(p + kIp + 10);
  parsed.ip.src.value = load_be32(p + kIp + 12);
  parsed.ip.dst.value = load_be32(p + kIp + 16);
  parsed.udp.src_port = load_be16(p + kL4);
  parsed.udp.dst_port = load_be16(p + kL4 + 2);
  parsed.udp.length = load_be16(p + kL4 + 4);
  parsed.udp.checksum = load_be16(p + kL4 + 6);
  parsed.payload = frame.subspan(kUdpFrameHeaderLen, *payload_len);
  return out;
}

}  // namespace dart::net
