#include "telemetry/int_wire.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "common/bytes.hpp"
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

constexpr std::size_t kIntHeaderLen = kIntShimLen + kIntMdLen;
constexpr std::size_t kMaxHopBytes = 12;  // three supported words

// Offsets into an Ethernet/IPv4/UDP frame (IPv4 without options).
constexpr std::size_t kIp = net::kEthernetHeaderLen;
constexpr std::size_t kUdp = kIp + net::kIpv4HeaderLen;
constexpr std::size_t kPayload = kUdp + net::kUdpHeaderLen;

// The acceptance rule of an INT payload, without decoding the stack: a shim
// of our type, a stack that fits, and a stack word count that is a whole
// number of hops (or zero, whatever the instruction bitmap).
[[nodiscard]] bool well_formed(std::span<const std::byte> p) noexcept {
  if (p.size() < kIntHeaderLen) return false;
  if (static_cast<std::uint8_t>(p[0]) != kShimTypeIntMd) return false;
  const std::uint8_t stack_words = static_cast<std::uint8_t>(p[1]);
  if (p.size() < kIntHeaderLen + std::size_t{stack_words} * 4) {
    return false;
  }
  const std::uint8_t hop_words = int_hop_words(load_be16(p.data() + 8));
  return stack_words == 0 || (hop_words != 0 && stack_words % hop_words == 0);
}

// Whether a push onto the well-formed payload `p`, whose bitmap names a
// supported field, finds room: a hop remains, and the 8-bit stack word
// count can take the hop's words.
[[nodiscard]] bool has_room(std::span<const std::byte> p) noexcept {
  const unsigned hop_words = int_hop_words(load_be16(p.data() + 8));
  return static_cast<std::uint8_t>(p[6]) != 0 &&
         static_cast<std::uint8_t>(p[1]) + hop_words <= 0xFF;
}

// One hop's stack entry: the words the bitmap names, in the order switch
// id, hop latency, queue depth. Returns its length in bytes.
std::size_t encode_hop(const IntHopMetadata& hop, std::uint16_t instructions,
                       std::byte* words) noexcept {
  std::size_t off = 0;
  if (instructions & kIntInsSwitchId) {
    store_be32(words + off, hop.switch_id);
    off += 4;
  }
  if (instructions & kIntInsHopLatency) {
    store_be32(words + off, hop.hop_latency_ns);
    off += 4;
  }
  if (instructions & kIntInsQueueDepth) {
    store_be32(words + off, hop.queue_depth);
    off += 4;
  }
  return off;
}

// Inverse of encode_hop; the fields the bitmap omits read 0.
[[nodiscard]] IntHopMetadata decode_hop(const std::byte* words,
                                        std::uint16_t instructions) noexcept {
  IntHopMetadata hop;
  std::size_t off = 0;
  if (instructions & kIntInsSwitchId) {
    hop.switch_id = load_be32(words + off);
    off += 4;
  }
  if (instructions & kIntInsHopLatency) {
    hop.hop_latency_ns = load_be32(words + off);
    off += 4;
  }
  if (instructions & kIntInsQueueDepth) hop.queue_depth = load_be32(words + off);
  return hop;
}

// The header half of a push: validates `payload`, then consumes one
// remaining hop and counts the hop's words in the shim (or sets the M bit
// when there is no room). Writes the hop's entry to `words` (room for
// kMaxHopBytes) and returns its length in bytes; 0 when nothing is pushed.
std::size_t begin_push(std::span<std::byte> payload, const IntHopMetadata& hop,
                       std::byte* words) noexcept {
  // A switch only operates on structurally valid INT packets: a payload
  // that fails the acceptance rule is left untouched.
  if (!well_formed(payload)) return 0;
  const std::uint16_t instructions = load_be16(payload.data() + 8);
  const std::uint8_t hop_words = int_hop_words(instructions);
  if (hop_words == 0) return 0;
  if (!has_room(payload)) {
    // Hop limit exceeded (or the word count is full): set the M bit, push
    // nothing (spec behaviour).
    payload[4] = static_cast<std::byte>(
        static_cast<std::uint8_t>(payload[4]) | 0x1);
    return 0;
  }
  payload[6] = static_cast<std::byte>(static_cast<std::uint8_t>(payload[6]) - 1);
  // Stack word count in the shim.
  payload[1] = static_cast<std::byte>(
      static_cast<std::uint8_t>(payload[1]) + hop_words);
  return encode_hop(hop, instructions, words);
}

// The UDP payload length of a frame net::parse_udp_frame accepts.
[[nodiscard]] std::size_t udp_payload_len(
    std::span<const std::byte> frame) noexcept {
  return load_be16(frame.data() + kUdp + 4) - net::kUdpHeaderLen;
}

// What the deparser writes around the `payload_len`-byte UDP payload at
// kPayload — the bytes net::build_udp_frame would give with the frame's
// addresses, ports and DSCP: drops anything after the payload, then writes
// the UDP destination port, length and checksum 0, and the IPv4 total
// length, identification and flags 0, ECN 0, TTL - 1 (not below 0) and a
// fresh header checksum. Returns the payload.
std::span<const std::byte> deparse(net::Packet& frame, std::uint16_t dst_port,
                                   std::size_t payload_len) {
  frame.truncate(kPayload + payload_len);
  const auto out = frame.mutable_bytes();
  store_be16(out.data() + kUdp + 2, dst_port);
  store_be16(out.data() + kUdp + 4,
           static_cast<std::uint16_t>(net::kUdpHeaderLen + payload_len));
  store_be16(out.data() + kUdp + 6, 0);
  out[kIp + 1] = static_cast<std::byte>(
      static_cast<std::uint8_t>(out[kIp + 1]) & 0xFC);
  store_be16(out.data() + kIp + 2,
           static_cast<std::uint16_t>(net::kIpv4HeaderLen +
                                      net::kUdpHeaderLen + payload_len));
  store_be32(out.data() + kIp + 4, 0);
  const auto ttl = static_cast<std::uint8_t>(out[kIp + 8]);
  out[kIp + 8] = static_cast<std::byte>(ttl > 0 ? ttl - 1 : 0);
  store_be16(out.data() + kIp + 10, 0);
  store_be16(out.data() + kIp + 10,
           net::internet_checksum(out.subspan(kIp, net::kIpv4HeaderLen)));
  return frame.bytes().subspan(kPayload, payload_len);
}

}  // namespace

std::span<const std::byte> int_source_push_frame(net::Packet& frame,
                                                 const IntMdHeader& md,
                                                 const IntHopMetadata& hop) {
  assert(net::parse_udp_frame(frame.bytes()).has_value());
  const std::size_t payload_len = udp_payload_len(frame.bytes());

  // Shim + MD header with an empty stack, then the first push.
  std::array<std::byte, kIntHeaderLen + kMaxHopBytes> head{};
  head[0] = static_cast<std::byte>(kShimTypeIntMd);
  head[1] = std::byte{0};
  store_be16(head.data() + 2, load_be16(frame.bytes().data() + kUdp + 2));
  head[4] = static_cast<std::byte>((md.version << 4) | (md.exceeded ? 1 : 0));
  head[5] = static_cast<std::byte>(md.hop_words);
  head[6] = static_cast<std::byte>(md.remaining_hops);
  head[7] = std::byte{0};
  store_be16(head.data() + 8, md.instructions);
  store_be16(head.data() + 10, md.domain_id);
  const std::size_t n = begin_push(std::span(head).first(kIntHeaderLen), hop,
                                   head.data() + kIntHeaderLen);

  frame.insert(kPayload, std::span(head).first(kIntHeaderLen + n));
  return deparse(frame, kIntUdpPort, kIntHeaderLen + n + payload_len);
}

std::span<const std::byte> int_transit_push_frame(net::Packet& frame,
                                                  const IntHopMetadata& hop) {
  assert(net::parse_udp_frame(frame.bytes()).has_value());
  std::size_t payload_len = udp_payload_len(frame.bytes());

  std::array<std::byte, kMaxHopBytes> words{};
  const std::size_t n = begin_push(
      frame.mutable_bytes().subspan(kPayload, payload_len), hop, words.data());
  if (n != 0) {
    // Newest first: directly after the MD header.
    frame.insert(kPayload + kIntHeaderLen, std::span(words).first(n));
    payload_len += n;
  }
  return deparse(frame, kIntUdpPort, payload_len);
}

std::optional<std::uint16_t> int_original_dst_port(
    std::span<const std::byte> udp_payload) noexcept {
  if (!well_formed(udp_payload)) return std::nullopt;
  return load_be16(udp_payload.data() + 2);
}

std::optional<bool> int_sink_owes_hop(std::span<const std::byte> udp_payload,
                                      std::uint32_t wire_id) noexcept {
  if (!well_formed(udp_payload)) return std::nullopt;
  if (udp_payload[1] == std::byte{0}) return true;  // no hop on the stack
  // The newest hop is the first entry, its switch id the entry's first word.
  const std::uint16_t instructions = load_be16(udp_payload.data() + 8);
  const std::uint32_t newest = (instructions & kIntInsSwitchId)
                                   ? load_be32(udp_payload.data() + kIntHeaderLen)
                                   : 0;
  return newest != wire_id;
}

IntSinkResult int_sink_pop_frame(net::Packet& frame,
                                 const std::optional<IntHopMetadata>& own_hop,
                                 std::uint32_t max_hops,
                                 std::span<std::byte> value) {
  assert(net::parse_udp_frame(frame.bytes()).has_value());
  const auto bytes = frame.mutable_bytes();
  const std::size_t payload_len = udp_payload_len(bytes);
  const std::byte* payload = bytes.data() + kPayload;
  assert(well_formed({payload, payload_len}));
  const std::uint16_t instructions = load_be16(payload + 8);
  const std::size_t hop_bytes = std::size_t{int_hop_words(instructions)} * 4;
  const std::size_t stack_bytes =
      std::size_t{static_cast<std::uint8_t>(payload[1])} * 4;
  const std::size_t stack_hops = hop_bytes != 0 ? stack_bytes / hop_bytes : 0;

  // The sink's hop goes through the same word encoding as a pushed one.
  std::array<std::byte, kMaxHopBytes> own_words{};
  const bool own = own_hop && hop_bytes != 0 && has_room({payload, payload_len});
  if (own) (void)encode_hop(*own_hop, instructions, own_words.data());

  IntSinkResult result;
  const std::size_t hops = stack_hops + (own ? 1 : 0);
  const std::size_t kept = std::min<std::size_t>(hops, max_hops);
  result.value_written = kept * 4 <= value.size();
  if (result.value_written) std::fill(value.begin(), value.end(), std::byte{0});
  // Oldest first: the stack's last entry, then up to the newest, then ours.
  for (std::size_t h = 0; h < hops; ++h) {
    const std::byte* entry =
        h < stack_hops
            ? payload + kIntHeaderLen + (stack_hops - 1 - h) * hop_bytes
            : own_words.data();
    const IntHopMetadata hop = decode_hop(entry, instructions);
    result.max_queue_depth = std::max(result.max_queue_depth, hop.queue_depth);
    if (result.value_written && h < kept) {
      store_be32(value.data() + h * 4, hop.switch_id);
    }
  }
  result.overhead_bytes = kIntHeaderLen + stack_bytes + (own ? hop_bytes : 0);

  const std::uint16_t original_dst_port = load_be16(payload + 2);
  const std::size_t inner_len = payload_len - kIntHeaderLen - stack_bytes;
  std::memmove(bytes.data() + kPayload,
               payload + kIntHeaderLen + stack_bytes, inner_len);
  (void)deparse(frame, original_dst_port, inner_len);
  return result;
}

}  // namespace dart::telemetry
