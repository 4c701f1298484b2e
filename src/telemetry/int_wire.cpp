#include "telemetry/int_wire.hpp"

#include <array>
#include <cassert>
#include <cstring>

#include "net/checksum.hpp"
#include "net/headers.hpp"

namespace dart::telemetry {

namespace {

// Shim layout (4 B): [type:1][npt:1][length_words:1][reserved:1] followed by
// our NPT=1 extension: the original dst port stored in the first 2 bytes of
// the MD header's domain-specific slot... To stay self-contained we carry
// the original port in shim bytes 2..3 and keep the stack length in the MD
// header's remaining/words fields plus an explicit stack word count.
//
// Concretely:
//   shim[0] = type (0x01 = INT-MD)
//   shim[1] = stack_words (number of 4-byte metadata words present)
//   shim[2..3] = original destination UDP port (big-endian)
//
//   md[0] = version << 4 | (exceeded ? 0x1 : 0)
//   md[1] = hop_words
//   md[2] = remaining_hops
//   md[3] = reserved
//   md[4..5] = instruction bitmap (big-endian)
//   md[6..7] = domain id (big-endian)
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

// int_parse's acceptance rule, without decoding the stack: a shim of our
// type, a stack that fits, and a stack word count that is a whole number of
// hops (or zero, whatever the instruction bitmap).
[[nodiscard]] bool well_formed(std::span<const std::byte> p) noexcept {
  if (p.size() < kIntShimLen + kIntMdLen) return false;
  if (static_cast<std::uint8_t>(p[0]) != kShimTypeIntMd) return false;
  const std::uint8_t stack_words = static_cast<std::uint8_t>(p[1]);
  if (p.size() < kIntShimLen + kIntMdLen + std::size_t{stack_words} * 4) {
    return false;
  }
  const std::uint8_t hop_words = int_hop_words(get_be16(p.data() + 8));
  return stack_words == 0 || (hop_words != 0 && stack_words % hop_words == 0);
}

// The header half of a transit push: validates `payload`, then consumes one
// remaining hop and counts the hop's words in the shim (or sets the M bit
// when no hop remains). Writes the hop's encoding to `words` and returns
// its length in bytes; 0 when nothing is to be pushed.
std::size_t begin_push(std::span<std::byte> payload, const IntHopMetadata& hop,
                       std::array<std::byte, 12>& words) noexcept {
  // A transit switch only operates on structurally valid INT packets: a
  // payload that fails to parse (inconsistent stack length, unsupported
  // instruction bitmap, truncation) is left untouched.
  if (!well_formed(payload)) return 0;
  const std::uint16_t instructions = get_be16(payload.data() + 8);
  const std::uint8_t hop_words = int_hop_words(instructions);
  if (hop_words == 0) return 0;

  const std::uint8_t remaining = static_cast<std::uint8_t>(payload[6]);
  if (remaining == 0) {
    // Hop limit exceeded: set the M bit, push nothing (spec behaviour).
    payload[4] = static_cast<std::byte>(
        static_cast<std::uint8_t>(payload[4]) | 0x1);
    return 0;
  }
  payload[6] = static_cast<std::byte>(remaining - 1);

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
  // Stack word count in the shim.
  payload[1] = static_cast<std::byte>(
      static_cast<std::uint8_t>(payload[1]) + hop_words);
  return off;
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
  std::array<std::byte, 12> words{};
  const std::size_t n = begin_push(udp_payload, hop, words);
  if (n == 0) return false;
  // Push newest-first: insert directly after the MD header.
  udp_payload.insert(
      udp_payload.begin() + static_cast<std::ptrdiff_t>(kIntShimLen + kIntMdLen),
      words.begin(), words.begin() + static_cast<std::ptrdiff_t>(n));
  return true;
}

std::span<const std::byte> int_transit_push_frame(net::Packet& frame,
                                                  const IntHopMetadata& hop) {
  constexpr std::size_t kIp = net::kEthernetHeaderLen;
  constexpr std::size_t kUdp = kIp + net::kIpv4HeaderLen;
  constexpr std::size_t kPayload = kUdp + net::kUdpHeaderLen;
  const auto bytes = frame.mutable_bytes();
  assert(net::parse_udp_frame(bytes).has_value());
  std::size_t payload_len =
      get_be16(bytes.data() + kUdp + 4) - net::kUdpHeaderLen;

  std::array<std::byte, 12> words{};
  const std::size_t n =
      begin_push(bytes.subspan(kPayload, payload_len), hop, words);
  if (n != 0) {
    frame.insert(kPayload + kIntShimLen + kIntMdLen, {words.data(), n});
    payload_len += n;
  }

  // What the deparser writes for the forwarded frame: lengths, TTL - 1 (not
  // below 0) and a fresh header checksum.
  const auto out = frame.mutable_bytes();
  put_be16(out.data() + kIp + 2,
           static_cast<std::uint16_t>(net::kIpv4HeaderLen +
                                      net::kUdpHeaderLen + payload_len));
  const auto ttl = static_cast<std::uint8_t>(out[kIp + 8]);
  out[kIp + 8] = static_cast<std::byte>(ttl > 0 ? ttl - 1 : 0);
  put_be16(out.data() + kIp + 10, 0);
  put_be16(out.data() + kIp + 10,
           net::internet_checksum(out.subspan(kIp, net::kIpv4HeaderLen)));
  put_be16(out.data() + kUdp + 4,
           static_cast<std::uint16_t>(net::kUdpHeaderLen + payload_len));
  return frame.bytes().subspan(kPayload, payload_len);
}

std::optional<std::uint16_t> int_original_dst_port(
    std::span<const std::byte> udp_payload) noexcept {
  if (!well_formed(udp_payload)) return std::nullopt;
  return get_be16(udp_payload.data() + 2);
}

std::optional<IntWirePacket> int_parse(std::span<const std::byte> udp_payload) {
  if (!well_formed(udp_payload)) return std::nullopt;
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
  const std::uint8_t hop_words = int_hop_words(pkt.md.instructions);

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

}  // namespace dart::telemetry
