#include "check/int_oracle.hpp"

#include <algorithm>
#include <cstring>

#include "net/headers.hpp"

namespace dart::check {

using telemetry::IntHopMetadata;
using telemetry::IntMdHeader;
using telemetry::int_hop_words;
using telemetry::kIntInsHopLatency;
using telemetry::kIntInsQueueDepth;
using telemetry::kIntInsSwitchId;
using telemetry::kIntMdLen;
using telemetry::kIntShimLen;
using telemetry::kIntUdpPort;

namespace {

// Wire layout: see the shim/MD description in telemetry/int_wire.cpp.
constexpr std::uint8_t kShimTypeIntMd = 0x01;

void put_be16(std::byte* p, std::uint16_t v) {
  p[0] = static_cast<std::byte>(v >> 8);
  p[1] = static_cast<std::byte>(v & 0xFF);
}

[[nodiscard]] std::uint16_t get_be16(const std::byte* p) {
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[0])) << 8) |
      static_cast<std::uint8_t>(p[1]));
}

void put_be32(std::byte* p, std::uint32_t v) {
  put_be16(p, static_cast<std::uint16_t>(v >> 16));
  put_be16(p + 2, static_cast<std::uint16_t>(v & 0xFFFF));
}

[[nodiscard]] std::uint32_t get_be32(const std::byte* p) {
  return (static_cast<std::uint32_t>(get_be16(p)) << 16) | get_be16(p + 2);
}

// Rebuilds an Ethernet+IPv4+UDP frame around a new UDP payload / dst port,
// keeping addressing intact (what a switch's deparser does after INT edits).
std::vector<std::byte> rebuild_frame(const net::ParsedUdpFrame& frame,
                                     std::span<const std::byte> new_payload,
                                     std::uint16_t new_dst_port) {
  net::UdpFrameSpec spec;
  spec.src_mac = frame.eth.src;
  spec.dst_mac = frame.eth.dst;
  spec.src_ip = frame.ip.src;
  spec.dst_ip = frame.ip.dst;
  spec.src_port = frame.udp.src_port;
  spec.dst_port = new_dst_port;
  spec.ttl = static_cast<std::uint8_t>(frame.ip.ttl > 0 ? frame.ip.ttl - 1
                                                        : 0);
  spec.dscp = frame.ip.dscp;
  spec.protocol = frame.ip.protocol;
  return net::build_udp_frame(spec, new_payload);
}

}  // namespace

std::vector<std::byte> int_source_encap(const IntMdHeader& md,
                                        std::uint16_t original_dst_port,
                                        std::span<const std::byte> inner_payload) {
  std::vector<std::byte> out(kIntShimLen + kIntMdLen + inner_payload.size());
  out[0] = static_cast<std::byte>(kShimTypeIntMd);
  out[1] = std::byte{0};  // empty stack
  put_be16(out.data() + 2, original_dst_port);

  out[4] = static_cast<std::byte>((md.version << 4) | (md.exceeded ? 1 : 0));
  out[5] = static_cast<std::byte>(md.hop_words);
  out[6] = static_cast<std::byte>(md.remaining_hops);
  out[7] = std::byte{0};
  put_be16(out.data() + 8, md.instructions);
  put_be16(out.data() + 10, md.domain_id);

  if (!inner_payload.empty()) {
    // memcpy forbids a null source even for size 0, and an empty span's
    // data() may be null.
    std::memcpy(out.data() + kIntShimLen + kIntMdLen, inner_payload.data(),
                inner_payload.size());
  }
  return out;
}

bool int_transit_push(std::vector<std::byte>& udp_payload,
                      const IntHopMetadata& hop) {
  if (udp_payload.size() < kIntShimLen + kIntMdLen) return false;
  if (static_cast<std::uint8_t>(udp_payload[0]) != kShimTypeIntMd) return false;
  // A transit switch only operates on structurally valid INT packets: a
  // payload that fails to parse (inconsistent stack length, unsupported
  // instruction bitmap, truncation) is left untouched.
  if (!int_parse(udp_payload).has_value()) return false;
  if (int_hop_words(get_be16(udp_payload.data() + 8)) == 0) return false;

  const std::uint8_t remaining =
      static_cast<std::uint8_t>(udp_payload[6]);
  const std::uint16_t instructions = get_be16(udp_payload.data() + 8);
  const std::uint8_t hop_words = int_hop_words(instructions);
  if (remaining == 0 ||
      static_cast<std::uint8_t>(udp_payload[1]) + hop_words > 0xFF) {
    // Hop limit exceeded, or the stack word count would wrap: set the M
    // bit, push nothing (spec behaviour).
    udp_payload[4] = static_cast<std::byte>(
        static_cast<std::uint8_t>(udp_payload[4]) | 0x1);
    return false;
  }
  udp_payload[6] = static_cast<std::byte>(remaining - 1);

  // Push newest-first: insert directly after the MD header.
  std::vector<std::byte> words(static_cast<std::size_t>(hop_words) * 4);
  std::size_t off = 0;
  if (instructions & kIntInsSwitchId) {
    put_be32(words.data() + off, hop.switch_id);
    off += 4;
  }
  if (instructions & kIntInsHopLatency) {
    put_be32(words.data() + off, hop.hop_latency_ns);
    off += 4;
  }
  if (instructions & kIntInsQueueDepth) {
    put_be32(words.data() + off, hop.queue_depth);
    off += 4;
  }
  udp_payload.insert(
      udp_payload.begin() + static_cast<std::ptrdiff_t>(kIntShimLen + kIntMdLen),
      words.begin(), words.end());

  // Stack word count in the shim.
  udp_payload[1] = static_cast<std::byte>(
      static_cast<std::uint8_t>(udp_payload[1]) + hop_words);
  return true;
}

std::optional<IntWirePacket> int_parse(std::span<const std::byte> udp_payload) {
  if (udp_payload.size() < kIntShimLen + kIntMdLen) return std::nullopt;
  if (static_cast<std::uint8_t>(udp_payload[0]) != kShimTypeIntMd) {
    return std::nullopt;
  }
  IntWirePacket pkt;
  const std::uint8_t stack_words = static_cast<std::uint8_t>(udp_payload[1]);
  pkt.original_dst_port = get_be16(udp_payload.data() + 2);

  const std::uint8_t ver_flags = static_cast<std::uint8_t>(udp_payload[4]);
  pkt.md.version = ver_flags >> 4;
  pkt.md.exceeded = (ver_flags & 0x1) != 0;
  pkt.md.hop_words = static_cast<std::uint8_t>(udp_payload[5]);
  pkt.md.remaining_hops = static_cast<std::uint8_t>(udp_payload[6]);
  pkt.md.instructions = get_be16(udp_payload.data() + 8);
  pkt.md.domain_id = get_be16(udp_payload.data() + 10);

  const std::size_t stack_bytes = static_cast<std::size_t>(stack_words) * 4;
  if (udp_payload.size() < kIntShimLen + kIntMdLen + stack_bytes) {
    return std::nullopt;
  }
  const std::uint8_t hop_words = int_hop_words(pkt.md.instructions);
  if (hop_words == 0 || stack_words % hop_words != 0) {
    if (stack_words != 0) return std::nullopt;
  }

  // Stack is newest-first on the wire; return oldest-first (path order).
  const std::byte* stack = udp_payload.data() + kIntShimLen + kIntMdLen;
  const std::size_t n_hops = hop_words ? stack_words / hop_words : 0;
  for (std::size_t h = n_hops; h-- > 0;) {
    const std::byte* entry = stack + h * hop_words * 4;
    IntHopMetadata hop;
    std::size_t off = 0;
    if (pkt.md.instructions & kIntInsSwitchId) {
      hop.switch_id = get_be32(entry + off);
      off += 4;
    }
    if (pkt.md.instructions & kIntInsHopLatency) {
      hop.hop_latency_ns = get_be32(entry + off);
      off += 4;
    }
    if (pkt.md.instructions & kIntInsQueueDepth) {
      hop.queue_depth = get_be32(entry + off);
      off += 4;
    }
    pkt.hops.push_back(hop);
  }
  pkt.inner_payload = udp_payload.subspan(kIntShimLen + kIntMdLen + stack_bytes);
  return pkt;
}

std::optional<std::vector<std::byte>> int_sink_decap(
    std::span<const std::byte> udp_payload) {
  const auto pkt = int_parse(udp_payload);
  if (!pkt) return std::nullopt;
  return std::vector<std::byte>(pkt->inner_payload.begin(),
                                pkt->inner_payload.end());
}

std::optional<std::size_t> int_overhead_bytes(
    std::span<const std::byte> udp_payload) {
  const auto pkt = int_parse(udp_payload);
  if (!pkt) return std::nullopt;
  return udp_payload.size() - pkt->inner_payload.size();
}

std::vector<std::byte> reference_int_source(std::span<const std::byte> frame,
                                            const IntMdHeader& md,
                                            const IntHopMetadata& hop) {
  const auto parsed = net::parse_udp_frame(frame);
  if (!parsed) return {};
  auto payload = int_source_encap(md, parsed->udp.dst_port, parsed->payload);
  (void)int_transit_push(payload, hop);
  auto out = rebuild_frame(*parsed, payload, kIntUdpPort);
  if (!net::parse_udp_frame(out)) return {};
  return out;
}

std::vector<std::byte> reference_int_transit(std::span<const std::byte> frame,
                                             const IntHopMetadata& hop) {
  const auto parsed = net::parse_udp_frame(frame);
  if (!parsed) return {};
  std::vector<std::byte> payload(parsed->payload.begin(),
                                 parsed->payload.end());
  (void)int_transit_push(payload, hop);
  auto out = rebuild_frame(*parsed, payload, kIntUdpPort);
  if (!net::parse_udp_frame(out)) return {};
  return out;
}

ReferenceIntSink reference_int_sink(std::span<const std::byte> frame,
                                    std::uint32_t wire_id,
                                    const IntHopMetadata& own_hop,
                                    std::uint32_t max_hops,
                                    std::uint32_t value_bytes) {
  ReferenceIntSink out;
  const auto parsed = net::parse_udp_frame(frame);
  if (!parsed) return out;
  std::vector<std::byte> payload(parsed->payload.begin(),
                                 parsed->payload.end());
  // If we are also a transit (not the source of this packet), push our hop
  // now unless we were the source (the source already pushed).
  const auto pre = int_parse(payload);
  if (pre && (pre->hops.empty() || pre->hops.back().switch_id != wire_id)) {
    out.own_hop_sampled = true;
    (void)int_transit_push(payload, own_hop);
  }
  const auto pkt = int_parse(payload);
  if (!pkt) {
    // Not INT after all: plain delivery.
    out.host_frame.assign(frame.begin(), frame.end());
    return out;
  }
  out.accepted = true;
  out.overhead_bytes = payload.size() - pkt->inner_payload.size();
  for (const auto& hop : pkt->hops) {
    out.max_queue_depth = std::max(out.max_queue_depth, hop.queue_depth);
  }

  // DART report value: the path's switch ids.
  telemetry::IntStack stack(max_hops);
  for (const auto& hop : pkt->hops) (void)stack.push_hop(hop);
  out.value = stack.encode_value(value_bytes);

  // Restore the inner frame for the host.
  const auto inner = int_sink_decap(payload);
  out.host_frame = rebuild_frame(*parsed, *inner, pkt->original_dst_port);
  return out;
}

}  // namespace dart::check
