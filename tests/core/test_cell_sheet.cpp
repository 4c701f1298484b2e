// Tests for the cell sheet (cell_sheet.hpp), the one FETCH_ADD counter
// region type. The suites keep the names of the §7 structures they cover: a
// flow-counter array is a flat one-row sheet, a count-min sketch a
// count-min sheet. Cell addressing is diffed against the reference in
// tests/check/test_prop_cell_sheet.cpp.
#include "core/cell_sheet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/oracle.hpp"

namespace dart::core {
namespace {

TEST(FlowCounterArray, FetchAddSemantics) {
  CellSheet counters(CellGeometry::flat(1024, 1));
  const auto key = sim_key(5);
  EXPECT_EQ(counters.fetch_add(key, 3), 0u);  // returns prior
  EXPECT_EQ(counters.fetch_add(key, 4), 3u);
  EXPECT_EQ(counters.estimate(key), 7u);
}

TEST(FlowCounterArray, DistinctKeysUsuallyDistinctCells) {
  CellSheet counters(CellGeometry::flat(1 << 16, 2));
  (void)counters.fetch_add(sim_key(1), 1);
  (void)counters.fetch_add(sim_key(2), 10);
  // With 64K cells the two keys almost surely differ (seed-pinned).
  const auto& geometry = counters.geometry();
  ASSERT_NE(geometry.cell_of(sim_key(1), 0), geometry.cell_of(sim_key(2), 0));
  EXPECT_EQ(counters.estimate(sim_key(1)), 1u);
  EXPECT_EQ(counters.estimate(sim_key(2)), 10u);
}

TEST(CountMinSketch, NeverUndercounts) {
  CellSheet sketch(CellGeometry::count_min(4, 1024, 3));
  for (std::uint64_t i = 0; i < 500; ++i) {
    (void)sketch.fetch_add(sim_key(i), i % 7 + 1);
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_GE(sketch.estimate(sim_key(i)), i % 7 + 1) << i;
  }
}

TEST(CountMinSketch, ExactWhenSparse) {
  CellSheet sketch(CellGeometry::count_min(4, 1 << 14, 3));
  (void)sketch.fetch_add(sim_key(1), 100);
  (void)sketch.fetch_add(sim_key(2), 50);
  EXPECT_EQ(sketch.estimate(sim_key(1)), 100u);
  EXPECT_EQ(sketch.estimate(sim_key(2)), 50u);
  EXPECT_EQ(sketch.estimate(sim_key(3)), 0u);
}

TEST(CountMinSketch, CellIndicesMatchAdd) {
  CellSheet sketch(CellGeometry::count_min(3, 256, 5));
  EXPECT_EQ(sketch.fetch_add(sim_key(42), 9), 0u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    const std::uint64_t cell = sketch.geometry().cell_of(sim_key(42), r);
    EXPECT_EQ(sketch.read_cell(cell), 9u);
    EXPECT_EQ(cell / 256, r);  // row-major layout
  }
}

// A sheet over an MR takes exactly its geometry's bytes, 8-byte aligned:
// the atomic adds go through atomic_ref on each cell.
TEST(CellSheet, RefusesMisfitRegions) {
  const auto geometry = CellGeometry::count_min(2, 8, 1);
  const std::size_t size = geometry.n_cells() * 8;
  std::vector<std::uint64_t> words(geometry.n_cells() + 1);
  const std::span<std::byte> bytes(reinterpret_cast<std::byte*>(words.data()),
                                   words.size() * 8);
  EXPECT_NO_THROW(CellSheet(geometry, bytes.first(size)));
  EXPECT_THROW(CellSheet(geometry, bytes), std::invalid_argument);
  EXPECT_THROW(CellSheet(geometry, bytes.subspan(4, size)),
               std::invalid_argument);
}

// Regression for the non-atomic `+=` in fetch_add: N threads each add 1 to
// ONE shared cell, and each must observe a distinct prior value — the priors
// form a permutation of 0..n-1 exactly when every RMW was atomic. The plain
// `+=` both lost increments (final sum short) and duplicated priors.
TEST(FlowCounterArrayHammer, ConcurrentFetchAddOneCellIsLossless) {
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 4096;
  CellSheet counters(CellGeometry::flat(64, 9));
  const auto key = sim_key(3);

  std::vector<std::vector<std::uint64_t>> priors(kThreads);
  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      priors[t].reserve(kAddsPerThread);
      gate.arrive_and_wait();
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        priors[t].push_back(counters.fetch_add(key, 1));
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t total = kThreads * kAddsPerThread;
  EXPECT_EQ(counters.estimate(key), total);  // no lost increments
  std::vector<std::uint64_t> all;
  all.reserve(total);
  for (const auto& p : priors) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(all[i], i);  // priors are a permutation of 0..total-1
  }
}

// Same property for the sketch: concurrent adds over many keys conserve the
// per-row sum (every row absorbs every delta exactly once).
TEST(CountMinSketchHammer, ConcurrentAddsConserveRowSums) {
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 2048;
  constexpr std::uint32_t kRows = 4;
  constexpr std::uint64_t kCols = 128;
  CellSheet sketch(CellGeometry::count_min(kRows, kCols, 11));

  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        // Distinct key streams per thread; delta in 1..4.
        (void)sketch.fetch_add(sim_key(t * kAddsPerThread + i), i % 4 + 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t expected_per_row = 0;
  for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
    expected_per_row += (i % 4 + 1) * kThreads;
  }
  for (std::uint32_t r = 0; r < kRows; ++r) {
    std::uint64_t row_sum = 0;
    for (std::uint64_t c = 0; c < kCols; ++c) {
      row_sum += sketch.read_cell(r * kCols + c);
    }
    EXPECT_EQ(row_sum, expected_per_row) << "row " << r;
  }
}

}  // namespace
}  // namespace dart::core
