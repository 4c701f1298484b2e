// Cell sheets — the one shape of every FETCH_ADD counter region (§7).
//
// Flow counters and count-min sketches are rows of host-endian 64-bit
// cells, where row r of a key owns cell r·cols + xxhash64(key, seed_r) mod
// cols. DTA's Key-Increment array (primitives.hpp) is one row; the sketch
// behind SketchBackend (store_backend.hpp) is `rows` of them. Many switches
// FETCH_ADD into one sheet, so it is the network-wide aggregate with no
// merge step. CellGeometry is the addressing switches craft with and the
// only place the cell formula and the row-seed rule are written; CellSheet
// is a geometry over a RegionBacking (store.hpp). The tests diff both
// against the reference addressing in src/check/reference_crafter.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/hash.hpp"
#include "core/store.hpp"

namespace dart::core {

class CellGeometry {
 public:
  static constexpr std::uint32_t kMaxRows = 32;

  // One row hashed with `seed` as given: the Key-Increment counter array.
  [[nodiscard]] static CellGeometry flat(std::uint64_t cols,
                                         std::uint64_t seed) {
    CellGeometry geometry(1, cols);
    geometry.seeds_[0] = seed;
    return geometry;
  }
  // Count-min: row r hashed with the (r+1)-th SplitMix64 output of `seed`.
  [[nodiscard]] static CellGeometry count_min(std::uint32_t rows,
                                              std::uint64_t cols,
                                              std::uint64_t seed);

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint64_t n_cells() const noexcept {
    return static_cast<std::uint64_t>(rows_) * cols_;
  }

  // Row-major index of the cell row `r` of `key` owns; its FETCH_ADD goes
  // to dst.slot_vaddr(cell_of(key, r)).
  [[nodiscard]] std::uint64_t cell_of(std::span<const std::byte> key,
                                      std::uint32_t r) const noexcept {
    return static_cast<std::uint64_t>(r) * cols_ +
           xxhash64(key, seeds_[r]) % cols_;
  }

 private:
  // Rows outside 1..kMaxRows or cols == 0 throw std::invalid_argument in
  // every build mode: the seed array is fixed.
  CellGeometry(std::uint32_t rows, std::uint64_t cols)
      : rows_(rows), cols_(cols) {
    if (rows < 1 || rows > kMaxRows || cols == 0) refuse(rows, cols);
  }
  [[noreturn]] static void refuse(std::uint32_t rows, std::uint64_t cols);

  std::uint32_t rows_;
  std::uint64_t cols_;
  std::array<std::uint64_t, kMaxRows> seeds_{};
};

class CellSheet {
 public:
  // Self-owning (zeroed), or over a registered MR that outlives the sheet
  // and is exactly n_cells() * 8 bytes, 8-byte aligned (else
  // std::invalid_argument).
  explicit CellSheet(const CellGeometry& geometry)
      : geometry_(geometry), backing_(geometry.n_cells() * 8) {}
  CellSheet(const CellGeometry& geometry, std::span<std::byte> memory);

  [[nodiscard]] const CellGeometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] std::span<std::byte> memory() noexcept {
    return backing_.memory();
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return backing_.memory();
  }

  // Local FETCH_ADD on every row's cell of `key`, returning row 0's prior
  // value (RDMA semantics). The adds are relaxed atomic_refs, as the RNIC
  // serializes atomics, so concurrent local feeders sum instead of racing.
  std::uint64_t fetch_add(std::span<const std::byte> key,
                          std::uint64_t delta) noexcept;
  // Minimum over the rows (the count-min estimate; one row's counter). An
  // all-UINT64_MAX minimum reads 0.
  [[nodiscard]] std::uint64_t estimate(
      std::span<const std::byte> key) const noexcept;
  [[nodiscard]] std::uint64_t read_cell(std::uint64_t index) const noexcept;

  void clear() noexcept { backing_.clear(); }

 private:
  CellGeometry geometry_;
  RegionBacking backing_;
};

}  // namespace dart::core
