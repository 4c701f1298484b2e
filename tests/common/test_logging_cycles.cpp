// Coverage for the cycle-accounting utilities.
#include "common/cycles.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace dart {
namespace {

TEST(Cycles, TscIsMonotonicNondecreasing) {
  std::uint64_t prev = rdtsc();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = rdtsc();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

TEST(Cycles, FrequencyIsPlausible) {
  const double ghz = tsc_ghz();
  EXPECT_GT(ghz, 0.001);  // aarch64 generic timers run at ~25-1000 MHz
  EXPECT_LT(ghz, 10.0);   // no 10 GHz CPUs
  // Cached: second call returns the identical value.
  EXPECT_EQ(tsc_ghz(), ghz);
}

TEST(Cycles, CycleTimerAccumulates) {
  std::uint64_t sink = 0;
  {
    CycleTimer t(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::uint64_t first = sink;
  EXPECT_GT(first, 0u);
  {
    CycleTimer t(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(sink, first);  // accumulates, not overwrites
  // ~2 ms at the measured frequency, within generous bounds.
  const double ns = static_cast<double>(first) / tsc_ghz();
  EXPECT_GT(ns, 1e6);
  EXPECT_LT(ns, 1e9);
}

}  // namespace
}  // namespace dart
