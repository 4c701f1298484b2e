// Integration: Monte-Carlo simulation vs the §4 closed forms — the same
// validation the paper performs ("simulations adhere to the aforementioned
// theory", §5.1; "almost exactly matches the theoretically predicted 38.7%",
// §5.2), at CI-friendly scale.
#include <gtest/gtest.h>

#include <cstring>

#include "core/analysis.hpp"
#include "core/oracle.hpp"
#include "core/query.hpp"
#include "core/reporter.hpp"

namespace dart::core {
namespace {

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

DartConfig config(std::uint32_t n, std::uint32_t bits, std::uint64_t slots) {
  DartConfig cfg;
  cfg.n_slots = slots;
  cfg.n_addresses = n;
  cfg.checksum_bits = bits;
  cfg.value_bytes = 8;
  cfg.master_seed = 0x5EED;
  return cfg;
}

// Writes `keys` distinct keys once each, then queries them all; returns the
// oracle's verdict counts. This is exactly the Fig. 3/4 experiment shape.
VerdictCounts run_fill_and_query(const DartConfig& cfg, std::uint64_t keys,
                                 ReturnPolicy policy) {
  DartStore store(cfg);
  Oracle oracle;
  for (std::uint64_t i = 0; i < keys; ++i) {
    store.write(sim_key(i), value_of(i));
    oracle.record(i, value_of(i));
  }
  const QueryEngine q(store);
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)oracle.classify(i, q.resolve(sim_key(i), policy));
  }
  return oracle.counts();
}

// gtest prints a TheoryCase as its raw bytes and ctest names each case after
// that dump, so the struct has no padding: `label` fills the four bytes
// between `n` and `alpha`, which were otherwise uninitialised and made the
// case names change whenever an unrelated change moved memory around. The
// label values are arbitrary; they are fixed so that the listed names stay
// the same from build to build. The test body never reads them.
struct TheoryCase {
  std::uint32_t n;
  std::uint32_t label;
  double alpha;  // keys / slots
};
static_assert(sizeof(TheoryCase) == 16, "TheoryCase must have no padding");

class TheoryVsSim : public ::testing::TestWithParam<TheoryCase> {};

TEST_P(TheoryVsSim, AverageSuccessMatchesIntegratedTheory) {
  const auto p = GetParam();
  constexpr std::uint64_t kSlots = 1 << 17;  // 131072
  const auto keys = static_cast<std::uint64_t>(p.alpha * kSlots);
  const auto counts =
      run_fill_and_query(config(p.n, 32, kSlots), keys, ReturnPolicy::kPlurality);

  const double expect =
      average_success_over_ages(static_cast<double>(keys), kSlots, p.n);
  EXPECT_NEAR(counts.success_rate(), expect, 0.015)
      << "n=" << p.n << " alpha=" << p.alpha;
  // 32-bit checksums: no return errors at this scale (§5.3).
  EXPECT_EQ(counts.error, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, TheoryVsSim,
    ::testing::Values(TheoryCase{1, 0, 0.5}, TheoryCase{1, 0x002C3B03, 1.0},
                      TheoryCase{2, 0xEFD00000, 0.25},
                      TheoryCase{2, 0, 0.745}, TheoryCase{2, 0, 1.5},
                      TheoryCase{4, 0x00091E03, 0.5},
                      TheoryCase{8, 0xCAD00000, 0.25}));

TEST(TheoryVsSim, OldestKeyMatchesPointTheory) {
  // The §5.2 check at 1/100 scale: α = 100e6·24B/3GB ≈ 0.745 with N=2 →
  // oldest-report queryability ≈ 38.7%. We measure the oldest 2% of keys.
  constexpr std::uint64_t kSlots = 1 << 17;
  constexpr double kAlpha = 100e6 * 24.0 / 3e9;  // = 0.8 slots-load... see below
  // The paper's 3GB/24B = 125e6 slots for 100e6 keys: α = 0.8.
  const auto keys = static_cast<std::uint64_t>(kAlpha * kSlots);

  DartConfig cfg = config(2, 32, kSlots);
  DartStore store(cfg);
  Oracle oracle;
  for (std::uint64_t i = 0; i < keys; ++i) {
    store.write(sim_key(i), value_of(i));
    oracle.record(i, value_of(i));
  }
  const QueryEngine q(store);
  const auto oldest_cohort = keys / 50;  // first-written 2%
  for (std::uint64_t i = 0; i < oldest_cohort; ++i) {
    (void)oracle.classify(i, q.resolve(sim_key(i)));
  }
  const double expect = oldest_success(static_cast<double>(keys), kSlots, 2);
  EXPECT_NEAR(oracle.counts().success_rate(), expect, 0.03);
}

TEST(TheoryVsSim, SmallChecksumsProduceReturnErrorsWithinBounds) {
  // Fig. 5's mechanism: shrink b until errors appear, then check the rate
  // sits between the §4 lower and upper bounds (which apply to the oldest
  // keys; we average, so allow the integrated window).
  constexpr std::uint64_t kSlots = 1 << 15;
  constexpr double kAlpha = 1.0;
  constexpr std::uint32_t kBits = 4;
  const auto keys = static_cast<std::uint64_t>(kAlpha * kSlots);
  const auto counts = run_fill_and_query(config(2, kBits, kSlots), keys,
                                         ReturnPolicy::kFirstMatch);
  EXPECT_GT(counts.error, 0u);
  // Integrated bounds over ages [0, α]: bracket loosely.
  const double upper = p_return_error_upper(kAlpha, 2, kBits);
  EXPECT_LT(counts.error_rate(), upper);
  EXPECT_GT(counts.error_rate(), p_return_error_lower(kAlpha, 2, kBits) / 50);
}

TEST(TheoryVsSim, StochasticModeUnderperformsAllSlotsPerReport) {
  // One stochastic report per key fills ~1 slot: queryability must fall
  // between the N=1 curve and the N=2 curve (it hashes over 2 addresses but
  // populates one).
  constexpr std::uint64_t kSlots = 1 << 16;
  constexpr std::uint64_t kKeys = kSlots / 2;  // α = 0.5

  DartConfig cfg = config(2, 32, kSlots);
  cfg.write_mode = WriteMode::kStochastic;
  DartStore store(cfg);
  DartReporter reporter(store, 9);
  Oracle oracle;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    reporter.report(sim_key(i), value_of(i), /*reports=*/1);
    oracle.record(i, value_of(i));
  }
  const QueryEngine q(store);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    (void)oracle.classify(i, q.resolve(sim_key(i)));
  }
  const double got = oracle.counts().success_rate();

  DartConfig all_cfg = config(2, 32, kSlots);
  const auto all_counts =
      run_fill_and_query(all_cfg, kKeys, ReturnPolicy::kPlurality);
  EXPECT_LT(got, all_counts.success_rate());
  EXPECT_GT(got, 0.5);  // still far better than nothing at α=0.5
}

TEST(TheoryVsSim, AmbiguousReturnsWithinBounds) {
  // §4's "empty return, case 2": ≥2 distinct values carrying the correct
  // checksum. Measure at small b where the effect is visible; the paper
  // gives lower/upper bounds (values of overwriters may coincide).
  constexpr std::uint64_t kSlots = 1 << 15;
  constexpr double kAlpha = 1.0;
  constexpr std::uint32_t kBits = 4;
  const auto keys = static_cast<std::uint64_t>(kAlpha * kSlots);

  DartConfig cfg = config(2, kBits, kSlots);
  DartStore store(cfg);
  std::vector<std::byte> value(8);
  for (std::uint64_t i = 0; i < keys; ++i) {
    std::memcpy(value.data(), &i, 8);
    store.write(sim_key(i), value);
  }
  const QueryEngine q(store);
  std::uint64_t ambiguous = 0;
  for (std::uint64_t i = 0; i < keys; ++i) {
    const auto r = q.resolve(sim_key(i), ReturnPolicy::kSingleDistinct);
    if (r.distinct_values >= 2) ++ambiguous;
  }
  const double rate = static_cast<double>(ambiguous) / static_cast<double>(keys);
  // The §4 bounds apply at a fixed age; ambiguity is NON-monotone in age
  // (the one-survivor term peaks mid-life), so compare against the bounds
  // integrated over the measured age range [0, α].
  double int_lower = 0.0, int_upper = 0.0;
  constexpr int kSteps = 200;
  for (int s = 0; s < kSteps; ++s) {
    const double age = kAlpha * (s + 0.5) / kSteps;
    int_lower += p_ambiguous_lower(age, 2, kBits);
    int_upper += p_ambiguous_upper(age, 2, kBits);
  }
  int_lower /= kSteps;
  int_upper /= kSteps;
  EXPECT_GT(rate, int_lower * 0.9);
  EXPECT_LT(rate, int_upper * 1.1);
}

TEST(TheoryVsSim, EmptyReturnsTrackTheoryAtLargeChecksum) {
  // With b=32, empty returns are essentially "all copies overwritten":
  // measured empty rate ≈ integrated (1-e^{-αN})^N over ages.
  constexpr std::uint64_t kSlots = 1 << 16;
  constexpr double kAlpha = 1.0;
  const auto keys = static_cast<std::uint64_t>(kAlpha * kSlots);
  const auto counts =
      run_fill_and_query(config(2, 32, kSlots), keys, ReturnPolicy::kPlurality);
  const double expect_empty =
      1.0 - average_success_over_ages(static_cast<double>(keys), kSlots, 2);
  EXPECT_NEAR(counts.empty_rate(), expect_empty, 0.015);
}

}  // namespace
}  // namespace dart::core
