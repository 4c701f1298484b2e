// Byte-level utilities: endianness conversion and bounds-checked buffer
// reader/writer used by every wire-format module (Ethernet/IP/UDP headers,
// RoCEv2 BTH/RETH, DART report payloads).
//
// All multi-byte fields on the wire are big-endian (network order), matching
// the RoCEv2 and IP specifications. The host is assumed little-endian (x86),
// but the helpers are correct on either endianness.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace dart {

// ---------------------------------------------------------------------------
// Endianness
// ---------------------------------------------------------------------------

[[nodiscard]] constexpr std::uint16_t byteswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

[[nodiscard]] constexpr std::uint32_t byteswap32(std::uint32_t v) noexcept {
  return ((v & 0x0000'00FFu) << 24) | ((v & 0x0000'FF00u) << 8) |
         ((v & 0x00FF'0000u) >> 8) | ((v & 0xFF00'0000u) >> 24);
}

[[nodiscard]] constexpr std::uint64_t byteswap64(std::uint64_t v) noexcept {
  return (static_cast<std::uint64_t>(byteswap32(static_cast<std::uint32_t>(v)))
          << 32) |
         byteswap32(static_cast<std::uint32_t>(v >> 32));
}

namespace detail {
constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;
}  // namespace detail

// Host <-> network (big-endian) conversions.
[[nodiscard]] constexpr std::uint16_t host_to_net16(std::uint16_t v) noexcept {
  return detail::kHostIsLittleEndian ? byteswap16(v) : v;
}
[[nodiscard]] constexpr std::uint32_t host_to_net32(std::uint32_t v) noexcept {
  return detail::kHostIsLittleEndian ? byteswap32(v) : v;
}
[[nodiscard]] constexpr std::uint64_t host_to_net64(std::uint64_t v) noexcept {
  return detail::kHostIsLittleEndian ? byteswap64(v) : v;
}
[[nodiscard]] constexpr std::uint16_t net_to_host16(std::uint16_t v) noexcept {
  return host_to_net16(v);
}
[[nodiscard]] constexpr std::uint32_t net_to_host32(std::uint32_t v) noexcept {
  return host_to_net32(v);
}
[[nodiscard]] constexpr std::uint64_t net_to_host64(std::uint64_t v) noexcept {
  return host_to_net64(v);
}

// ---------------------------------------------------------------------------
// Big-endian loads and stores at a byte pointer, for code that reads and
// writes a fixed header layout in place (frame parsers and deparsers,
// template patching). The caller guarantees the bytes are there.
// ---------------------------------------------------------------------------

[[nodiscard]] inline std::uint16_t load_be16(const std::byte* p) noexcept {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return net_to_host16(v);
}
[[nodiscard]] inline std::uint32_t load_be32(const std::byte* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return net_to_host32(v);
}
[[nodiscard]] inline std::uint64_t load_be64(const std::byte* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return net_to_host64(v);
}
inline void store_be16(std::byte* p, std::uint16_t v) noexcept {
  v = host_to_net16(v);
  std::memcpy(p, &v, sizeof(v));
}
inline void store_be32(std::byte* p, std::uint32_t v) noexcept {
  v = host_to_net32(v);
  std::memcpy(p, &v, sizeof(v));
}
inline void store_be64(std::byte* p, std::uint64_t v) noexcept {
  v = host_to_net64(v);
  std::memcpy(p, &v, sizeof(v));
}

// ---------------------------------------------------------------------------
// BufWriter — append-only serializer over a growable byte vector.
// ---------------------------------------------------------------------------

class BufWriter {
 public:
  explicit BufWriter(std::vector<std::byte>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }

  // Big-endian (network order) writers.
  void be16(std::uint16_t v) { raw(host_to_net16(v)); }
  void be32(std::uint32_t v) { raw(host_to_net32(v)); }
  void be64(std::uint64_t v) { raw(host_to_net64(v)); }

  void bytes(std::span<const std::byte> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  void zeros(std::size_t n) { out_.insert(out_.end(), n, std::byte{0}); }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

 private:
  template <typename T>
  void raw(T v) {
    std::array<std::byte, sizeof(T)> tmp;
    std::memcpy(tmp.data(), &v, sizeof(T));
    out_.insert(out_.end(), tmp.begin(), tmp.end());
  }

  std::vector<std::byte>& out_;
};

// ---------------------------------------------------------------------------
// BufReader — bounds-checked deserializer over a byte span.
//
// Reads past the end do not throw; they set a sticky error flag and return
// zero, so parsers can decode a whole header and check ok() once (the idiom
// the RoCEv2 and IPv4 parsers use).
// ---------------------------------------------------------------------------

class BufReader {
 public:
  explicit BufReader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() noexcept {
    if (!ensure(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  [[nodiscard]] std::uint16_t be16() noexcept { return raw_be<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t be32() noexcept { return raw_be<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t be64() noexcept { return raw_be<std::uint64_t>(); }

  // Copies `n` bytes into `out`; on underflow fills with zeros and taints.
  void bytes(std::span<std::byte> out) noexcept {
    if (!ensure(out.size())) {
      std::memset(out.data(), 0, out.size());
      return;
    }
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
  }

  // Returns a view of the next `n` bytes without copying (empty on underflow).
  [[nodiscard]] std::span<const std::byte> view(std::size_t n) noexcept {
    if (!ensure(n)) return {};
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  void skip(std::size_t n) noexcept {
    if (ensure(n)) pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::span<const std::byte> rest() const noexcept {
    return data_.subspan(pos_);
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  template <typename T>
  [[nodiscard]] T raw_be() noexcept {
    if (!ensure(sizeof(T))) return T{0};
    T v{};
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    if constexpr (sizeof(T) == 2) return net_to_host16(v);
    if constexpr (sizeof(T) == 4) return net_to_host32(v);
    if constexpr (sizeof(T) == 8) return net_to_host64(v);
  }

  [[nodiscard]] bool ensure(std::size_t n) noexcept {
    if (data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Hex dump of a byte range, e.g. "de ad be ef" — used by tests and logging.
[[nodiscard]] std::string hex_dump(std::span<const std::byte> data,
                                   std::size_t max_bytes = 64);

}  // namespace dart
