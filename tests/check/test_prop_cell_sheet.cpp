// Cell-addressing property: core::CellGeometry, the one production place
// the cell formula and the row-seed rule are written, against the reference
// addressing in src/check/reference_crafter.hpp. Every row of random flat
// (Key-Increment) and count-min (sketch backend) geometries must name the
// reference's cell for random seeds and keys of 0–64 bytes, and shapes
// outside 1–32 rows or with no columns must be refused. A row seed off by
// one SplitMix64 output, a flat array hashed with a derived seed or a
// dropped row offset each fails it.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/property.hpp"
#include "check/reference_crafter.hpp"
#include "core/cell_sheet.hpp"

namespace dart::check {
namespace {

template <typename Build>
bool refused(Build build) {
  try {
    (void)build();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::optional<Failure> geometry_matches_reference(Rng& rng) {
  const bool flat = rng.chance(0.5);
  const auto rows =
      flat ? 1u
           : static_cast<std::uint32_t>(rng.range(1, core::CellGeometry::kMaxRows));
  const std::uint64_t cols = rng.range(1, 1u << 20);
  const std::uint64_t seed = rng.u64();
  const auto geometry = flat ? core::CellGeometry::flat(cols, seed)
                             : core::CellGeometry::count_min(rows, cols, seed);
  if (geometry.rows() != rows || geometry.cols() != cols) {
    return Failure{"geometry is " + std::to_string(geometry.rows()) + " x " +
                       std::to_string(geometry.cols()) + ", built " +
                       std::to_string(rows) + " x " + std::to_string(cols),
                   {}};
  }

  const auto n_keys = 1 + rng.below(4);
  for (std::uint64_t k = 0; k < n_keys; ++k) {
    const auto key = rng.bytes(rng.below(65));
    for (std::uint32_t r = 0; r < rows; ++r) {
      const std::uint64_t want = flat
                                     ? reference_counter_cell(key, seed, cols)
                                     : reference_sketch_cell(key, seed, r, cols);
      const std::uint64_t got = geometry.cell_of(key, r);
      if (got != want) {
        return Failure{std::string(flat ? "flat" : "count-min") + " " +
                           std::to_string(rows) + " x " +
                           std::to_string(cols) + ", " +
                           std::to_string(key.size()) + "-byte key, row " +
                           std::to_string(r) + ": cell " + std::to_string(got) +
                           ", reference " + std::to_string(want),
                       {}};
      }
    }
  }

  const auto too_many = static_cast<std::uint32_t>(
      rng.range(core::CellGeometry::kMaxRows + 1, UINT32_MAX));
  if (!refused([&] { return core::CellGeometry::count_min(0, cols, seed); }) ||
      !refused([&] { return core::CellGeometry::count_min(33, cols, seed); }) ||
      !refused([&] {
        return core::CellGeometry::count_min(too_many, cols, seed);
      }) ||
      !refused([&] { return core::CellGeometry::count_min(rows, 0, seed); }) ||
      !refused([&] { return core::CellGeometry::flat(0, seed); })) {
    return Failure{"a geometry with 0 or more than 32 rows, or 0 cols, was "
                   "built",
                   {}};
  }
  return std::nullopt;
}

TEST(PropCellSheet, GeometryMatchesReferenceCells) {
  const auto report =
      check("cell_geometry_reference", geometry_matches_reference, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
