#include "telemetry/int_path.hpp"

namespace dart::telemetry {

bool IntStack::push_hop(const IntHopMetadata& hop) {
  if (hops_.size() >= max_hops_) return false;
  hops_.push_back(hop);
  return true;
}

namespace {

void put_be32(std::vector<std::byte>& out, std::uint32_t v) {
  out.push_back(static_cast<std::byte>((v >> 24) & 0xFF));
  out.push_back(static_cast<std::byte>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::byte>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::byte>(v & 0xFF));
}

[[nodiscard]] std::uint32_t get_be32(std::span<const std::byte> in,
                                     std::size_t off) noexcept {
  return (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[off])) << 24) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[off + 1]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[off + 2]))
          << 8) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[off + 3]));
}

}  // namespace

std::optional<std::vector<std::byte>> IntStack::encode_value(
    std::uint32_t value_bytes) const {
  if (hops_.size() * 4 > value_bytes) return std::nullopt;

  std::vector<std::byte> out;
  out.reserve(value_bytes);
  for (const auto& hop : hops_) put_be32(out, hop.switch_id);
  out.resize(value_bytes, std::byte{0});
  return out;
}

std::vector<std::uint32_t> IntStack::decode_switch_ids(
    std::span<const std::byte> value, std::uint32_t expected_hops) {
  std::vector<std::uint32_t> ids;
  const std::size_t max_hops =
      expected_hops != 0 ? expected_hops : value.size() / 4;
  for (std::size_t h = 0; h < max_hops && (h + 1) * 4 <= value.size(); ++h) {
    const std::uint32_t id = get_be32(value, h * 4);
    if (expected_hops == 0 && id == 0) break;  // zero padding reached
    ids.push_back(id);
  }
  return ids;
}

}  // namespace dart::telemetry
