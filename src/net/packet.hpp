// Packet — the unit that flows through the simulated network, the switch
// pipeline model, and the simulated RNIC.
//
// A Packet owns a contiguous byte buffer (the wire bytes) plus simulation
// metadata (ingress port, timestamps, mirror flags) that a real device keeps
// in per-packet metadata rather than on the wire, mirroring how a P4 target
// separates headers from intrinsic metadata.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dart::net {

// Simulation-side per-packet metadata (not serialized on the wire).
struct PacketMeta {
  std::uint32_t ingress_port = 0;
  std::uint32_t egress_port = 0;
  std::uint64_t ingress_time_ns = 0;
  std::uint32_t queue_depth = 0;   // observed at enqueue, used by INT
  bool is_mirror_clone = false;    // set by the I2E mirror extern
  std::uint32_t mirror_session = 0;
};

class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::span<std::byte> mutable_bytes() noexcept { return bytes_; }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return bytes_.empty(); }

  void assign(std::vector<std::byte> bytes) { bytes_ = std::move(bytes); }
  void append(std::span<const std::byte> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  // Insert `data` before byte `at` (an INT transit push, in place).
  void insert(std::size_t at, std::span<const std::byte> data) {
    bytes_.insert(bytes_.begin() + static_cast<std::ptrdiff_t>(at),
                  data.begin(), data.end());
  }
  // Truncate to the first `n` bytes (mirror truncation on Tofino, §6).
  void truncate(std::size_t n) {
    if (n < bytes_.size()) bytes_.resize(n);
  }

  [[nodiscard]] PacketMeta& meta() noexcept { return meta_; }
  [[nodiscard]] const PacketMeta& meta() const noexcept { return meta_; }

  // Deep copy including metadata — used by the mirror extern.
  [[nodiscard]] Packet clone() const { return *this; }

 private:
  std::vector<std::byte> bytes_;
  PacketMeta meta_;
};

}  // namespace dart::net
