#include "check/reference_headers.hpp"

namespace dart::check {

std::uint16_t reference_internet_checksum(
    std::span<const std::byte> data) noexcept {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    const auto hi = std::to_integer<std::uint16_t>(data[i]);
    const auto lo = std::to_integer<std::uint16_t>(data[i + 1]);
    sum += static_cast<std::uint16_t>((hi << 8) | lo);
  }
  if (i < data.size()) {
    const auto hi = std::to_integer<std::uint16_t>(data[i]);
    sum += static_cast<std::uint16_t>(hi << 8);
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::optional<net::EthernetHeader> reference_parse_ethernet(BufReader& r) {
  net::EthernetHeader h;
  for (auto& b : h.dst) b = r.u8();
  for (auto& b : h.src) b = r.u8();
  h.ether_type = r.be16();
  if (!r.ok()) return std::nullopt;
  return h;
}

std::optional<net::Ipv4Header> reference_parse_ipv4(BufReader& r) {
  const auto raw = r.view(net::kIpv4HeaderLen);
  if (raw.size() != net::kIpv4HeaderLen) return std::nullopt;
  BufReader hr(raw);

  const std::uint8_t ver_ihl = hr.u8();
  if ((ver_ihl >> 4) != 4 || (ver_ihl & 0x0F) != 5) return std::nullopt;

  net::Ipv4Header h;
  h.dscp = hr.u8() >> 2;
  h.total_length = hr.be16();
  h.identification = hr.be16();
  hr.skip(2);  // flags/frag
  h.ttl = hr.u8();
  h.protocol = hr.u8();
  h.checksum = hr.be16();
  h.src.value = hr.be32();
  h.dst.value = hr.be32();

  // The checksum over the header including the checksum field verifies to
  // zero.
  if (reference_internet_checksum(raw) != 0) return std::nullopt;
  return h;
}

std::optional<net::UdpHeader> reference_parse_udp(BufReader& r) {
  net::UdpHeader h;
  h.src_port = r.be16();
  h.dst_port = r.be16();
  h.length = r.be16();
  h.checksum = r.be16();
  if (!r.ok() || h.length < net::kUdpHeaderLen) return std::nullopt;
  return h;
}

std::optional<net::ParsedUdpFrame> reference_parse_udp_frame(
    std::span<const std::byte> frame) {
  BufReader r(frame);
  const auto eth = reference_parse_ethernet(r);
  if (!eth || eth->ether_type != net::kEtherTypeIpv4) return std::nullopt;
  const auto ip = reference_parse_ipv4(r);
  // UDP, or TCP (6) framed with the same 8-byte L4 header.
  if (!ip || (ip->protocol != net::kIpProtoUdp && ip->protocol != 6)) {
    return std::nullopt;
  }
  const auto udp = reference_parse_udp(r);
  if (!udp) return std::nullopt;
  const std::size_t payload_len = udp->length - net::kUdpHeaderLen;
  if (r.remaining() < payload_len) return std::nullopt;
  net::ParsedUdpFrame parsed{*eth, *ip, *udp, {}};
  parsed.payload = r.view(payload_len);
  return parsed;
}

void reference_serialize_ethernet(const net::EthernetHeader& h, BufWriter& w) {
  for (const auto b : h.dst) w.u8(b);
  for (const auto b : h.src) w.u8(b);
  w.be16(h.ether_type);
}

void reference_serialize_ipv4(const net::Ipv4Header& h, BufWriter& w) {
  std::vector<std::byte> hdr;
  BufWriter hw(hdr);
  hw.u8(0x45);  // version 4, IHL 5
  hw.u8(static_cast<std::uint8_t>(h.dscp << 2));
  hw.be16(h.total_length);
  hw.be16(h.identification);
  hw.be16(0);  // flags + fragment offset
  hw.u8(h.ttl);
  hw.u8(h.protocol);
  hw.be16(0);  // checksum, patched below
  hw.be32(h.src.value);
  hw.be32(h.dst.value);
  const std::uint16_t checksum = reference_internet_checksum(hdr);
  hdr[10] = static_cast<std::byte>(checksum >> 8);
  hdr[11] = static_cast<std::byte>(checksum & 0xFF);
  w.bytes(hdr);
}

void reference_serialize_udp(const net::UdpHeader& h, BufWriter& w) {
  w.be16(h.src_port);
  w.be16(h.dst_port);
  w.be16(h.length);
  w.be16(h.checksum);
}

std::vector<std::byte> reference_build_udp_frame(
    const net::UdpFrameSpec& spec, std::span<const std::byte> payload) {
  std::vector<std::byte> out;
  BufWriter w(out);

  net::EthernetHeader eth;
  eth.dst = spec.dst_mac;
  eth.src = spec.src_mac;
  eth.ether_type = net::kEtherTypeIpv4;
  reference_serialize_ethernet(eth, w);

  net::Ipv4Header ip;
  ip.dscp = spec.dscp;
  ip.total_length = static_cast<std::uint16_t>(
      net::kIpv4HeaderLen + net::kUdpHeaderLen + payload.size());
  ip.ttl = spec.ttl;
  ip.protocol = spec.protocol;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  reference_serialize_ipv4(ip, w);

  net::UdpHeader udp;
  udp.src_port = spec.src_port;
  udp.dst_port = spec.dst_port;
  udp.length = static_cast<std::uint16_t>(net::kUdpHeaderLen + payload.size());
  udp.checksum = 0;
  reference_serialize_udp(udp, w);

  w.bytes(payload);
  return out;
}

}  // namespace dart::check
