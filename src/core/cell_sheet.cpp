#include "core/cell_sheet.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/random.hpp"

namespace dart::core {

namespace {

// The cells stay a plain byte span an MR registration can cover; atomicity
// comes from atomic_ref at each access.
std::atomic_ref<std::uint64_t> cell(std::span<const std::byte> memory,
                                    std::uint64_t index) noexcept {
  return std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(
      const_cast<std::byte*>(memory.data()) + index * 8));
}

}  // namespace

CellGeometry CellGeometry::count_min(std::uint32_t rows, std::uint64_t cols,
                                     std::uint64_t seed) {
  CellGeometry geometry(rows, cols);
  SplitMix64 sm(seed);
  for (std::uint32_t r = 0; r < rows; ++r) geometry.seeds_[r] = sm.next();
  return geometry;
}

void CellGeometry::refuse(std::uint32_t rows, std::uint64_t cols) {
  throw std::invalid_argument(
      "CellGeometry: " + std::to_string(rows) + " x " + std::to_string(cols) +
      " cells; rows must be 1.." + std::to_string(kMaxRows) + ", cols >= 1");
}

CellSheet::CellSheet(const CellGeometry& geometry, std::span<std::byte> memory)
    : geometry_(geometry), backing_(memory) {
  if (memory.size() != geometry.n_cells() * 8 ||
      reinterpret_cast<std::uintptr_t>(memory.data()) % 8 != 0) {
    throw std::invalid_argument("CellSheet: region size or alignment");
  }
}

std::uint64_t CellSheet::fetch_add(std::span<const std::byte> key,
                                   std::uint64_t delta) noexcept {
  const auto mem = backing_.memory();
  const std::uint64_t prior = cell(mem, geometry_.cell_of(key, 0))
                                  .fetch_add(delta, std::memory_order_relaxed);
  for (std::uint32_t r = 1; r < geometry_.rows(); ++r) {
    cell(mem, geometry_.cell_of(key, r))
        .fetch_add(delta, std::memory_order_relaxed);
  }
  return prior;
}

std::uint64_t CellSheet::estimate(
    std::span<const std::byte> key) const noexcept {
  std::uint64_t best = UINT64_MAX;
  for (std::uint32_t r = 0; r < geometry_.rows(); ++r) {
    best = std::min(best, read_cell(geometry_.cell_of(key, r)));
  }
  return best == UINT64_MAX ? 0 : best;
}

std::uint64_t CellSheet::read_cell(std::uint64_t index) const noexcept {
  assert(index < geometry_.n_cells());
  return cell(backing_.memory(), index).load(std::memory_order_relaxed);
}

}  // namespace dart::core
