#include "net/headers.hpp"

#include <array>
#include <cstdio>

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

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

void EthernetHeader::serialize(BufWriter& w) const {
  for (const auto b : dst) w.u8(b);
  for (const auto b : src) w.u8(b);
  w.be16(ether_type);
}

std::optional<EthernetHeader> EthernetHeader::parse(BufReader& r) {
  EthernetHeader h;
  for (auto& b : h.dst) b = r.u8();
  for (auto& b : h.src) b = r.u8();
  h.ether_type = r.be16();
  if (!r.ok()) return std::nullopt;
  return h;
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

void Ipv4Header::serialize(BufWriter& w) const {
  // Built on the stack, then checksummed and appended in one go.
  std::array<std::byte, kIpv4HeaderLen> hdr{};
  const auto put16 = [&hdr](std::size_t at, std::uint16_t v) {
    hdr[at] = static_cast<std::byte>(v >> 8);
    hdr[at + 1] = static_cast<std::byte>(v & 0xFF);
  };
  hdr[0] = std::byte{0x45};  // version 4, IHL 5
  hdr[1] = static_cast<std::byte>(dscp << 2);
  put16(2, total_length);
  put16(4, identification);
  // Bytes 6-7, flags + fragment offset: DF not modeled. 10-11: checksum.
  hdr[8] = static_cast<std::byte>(ttl);
  hdr[9] = static_cast<std::byte>(protocol);
  put16(12, static_cast<std::uint16_t>(src.value >> 16));
  put16(14, static_cast<std::uint16_t>(src.value & 0xFFFF));
  put16(16, static_cast<std::uint16_t>(dst.value >> 16));
  put16(18, static_cast<std::uint16_t>(dst.value & 0xFFFF));
  put16(10, internet_checksum(hdr));
  w.bytes(hdr);
}

std::optional<Ipv4Header> Ipv4Header::parse(BufReader& r) {
  const auto raw = r.view(kIpv4HeaderLen);
  if (raw.size() != kIpv4HeaderLen) return std::nullopt;
  BufReader hr(raw);

  const std::uint8_t ver_ihl = hr.u8();
  if ((ver_ihl >> 4) != 4 || (ver_ihl & 0x0F) != 5) return std::nullopt;

  Ipv4Header h;
  h.dscp = hr.u8() >> 2;
  h.total_length = hr.be16();
  h.identification = hr.be16();
  hr.skip(2);  // flags/frag
  h.ttl = hr.u8();
  h.protocol = hr.u8();
  h.checksum = hr.be16();
  h.src.value = hr.be32();
  h.dst.value = hr.be32();

  // Verify: checksum over the header including the checksum field must be 0
  // before complement, i.e. internet_checksum(header) == 0.
  if (internet_checksum(raw) != 0) return std::nullopt;
  return h;
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

void UdpHeader::serialize(BufWriter& w) const {
  w.be16(src_port);
  w.be16(dst_port);
  w.be16(length);
  w.be16(checksum);
}

std::optional<UdpHeader> UdpHeader::parse(BufReader& r) {
  UdpHeader h;
  h.src_port = r.be16();
  h.dst_port = r.be16();
  h.length = r.be16();
  h.checksum = r.be16();
  if (!r.ok() || h.length < kUdpHeaderLen) return std::nullopt;
  return h;
}

// ---------------------------------------------------------------------------
// Frame helpers
// ---------------------------------------------------------------------------

std::vector<std::byte> build_udp_frame(const UdpFrameSpec& spec,
                                       std::span<const std::byte> payload) {
  std::vector<std::byte> out;
  out.reserve(kEthernetHeaderLen + kIpv4HeaderLen + kUdpHeaderLen +
              payload.size());
  BufWriter w(out);

  EthernetHeader eth;
  eth.dst = spec.dst_mac;
  eth.src = spec.src_mac;
  eth.ether_type = kEtherTypeIpv4;
  eth.serialize(w);

  Ipv4Header ip;
  ip.dscp = spec.dscp;
  ip.total_length = static_cast<std::uint16_t>(kIpv4HeaderLen + kUdpHeaderLen +
                                               payload.size());
  ip.ttl = spec.ttl;
  ip.protocol = spec.protocol;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  ip.serialize(w);

  UdpHeader udp;
  udp.src_port = spec.src_port;
  udp.dst_port = spec.dst_port;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderLen + payload.size());
  udp.checksum = 0;  // RoCEv2 uses the iCRC; UDP checksum 0 is legal on IPv4
  udp.serialize(w);

  w.bytes(payload);
  return out;
}

std::optional<ParsedUdpFrame> parse_udp_frame(std::span<const std::byte> frame) {
  BufReader r(frame);
  const auto eth = EthernetHeader::parse(r);
  if (!eth || eth->ether_type != kEtherTypeIpv4) return std::nullopt;
  const auto ip = Ipv4Header::parse(r);
  // Accept UDP and (simplified) TCP — both carry the uniform 8-byte L4
  // header in this simulator; anything else is not parseable here.
  if (!ip || (ip->protocol != kIpProtoUdp && ip->protocol != 6)) {
    return std::nullopt;
  }
  const auto udp = UdpHeader::parse(r);
  if (!udp) return std::nullopt;
  const std::size_t payload_len = udp->length - kUdpHeaderLen;
  if (r.remaining() < payload_len) return std::nullopt;
  ParsedUdpFrame parsed{*eth, *ip, *udp, {}};
  BufReader rr = r;  // keep r's position semantics simple
  parsed.payload = rr.view(payload_len);
  return parsed;
}

}  // namespace dart::net
