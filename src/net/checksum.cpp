#include "net/checksum.hpp"

#include <cstring>

#include "common/bytes.hpp"

namespace dart::net {

void InternetChecksum::add(std::span<const std::byte> data) noexcept {
  // Whole big-endian 32-bit words: a word adds hi * 2^16 + lo, which folds
  // to hi + lo, so the one's-complement sum is the one over 16-bit words
  // (RFC 1071 §2) at whatever even offset a chunk starts.
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = sum_;
  for (; n >= 4; p += 4, n -= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    sum += net_to_host32(word);
  }
  // A last 16-bit word, then an odd byte as the high half of a zero-padded
  // word.
  if (n >= 2) {
    sum += (std::to_integer<std::uint32_t>(p[0]) << 8) |
           std::to_integer<std::uint32_t>(p[1]);
    p += 2;
    n -= 2;
  }
  if (n != 0) sum += std::to_integer<std::uint32_t>(p[0]) << 8;
  sum_ = sum;
}

std::uint16_t InternetChecksum::finish() const noexcept {
  std::uint64_t s = sum_;
  while (s >> 16) {
    s = (s & 0xFFFF) + (s >> 16);
  }
  return static_cast<std::uint16_t>(~s & 0xFFFF);
}

std::uint16_t internet_checksum(std::span<const std::byte> data) noexcept {
  InternetChecksum c;
  c.add(data);
  return c.finish();
}

}  // namespace dart::net
