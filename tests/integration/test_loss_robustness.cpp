// Integration: report loss between switches and collectors (§3's robustness
// motivation) — DART's N-way redundancy versus loss rate on WireFabric, where
// each report frame is dropped on its switch→collector monitoring link, plus
// bursty-loss behaviour of the simulator's loss models.
#include <gtest/gtest.h>

#include <cmath>

#include "net/netsim.hpp"
#include "telemetry/wire_fabric.hpp"
#include "telemetry/workload.hpp"

namespace dart::telemetry {
namespace {

WireFabricConfig fabric_config(double loss, std::uint32_t n_addresses) {
  WireFabricConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.dart.n_slots = 1 << 15;
  cfg.dart.n_addresses = n_addresses;
  cfg.dart.value_bytes = 20;
  cfg.dart.master_seed = 0x1055;
  cfg.switch_write_mode = core::WriteMode::kAllSlots;
  cfg.report_loss_rate = loss;
  cfg.seed = 13;
  return cfg;
}

double queryability_under_loss(double loss, std::uint32_t n, int flows) {
  WireFabric fabric(fabric_config(loss, n));
  FlowGenerator gen(fabric.topology(), 21);
  std::vector<FlowEndpoints> traced;
  for (int i = 0; i < flows; ++i) {
    traced.push_back(gen.next_flow());
    fabric.send_flow(traced.back().tuple, traced.back().src_host);
  }
  fabric.run();
  int found = 0;
  for (const auto& f : traced) {
    if (fabric.query_path(f.tuple).has_value()) ++found;
  }
  return static_cast<double>(found) / flows;
}

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, RedundancyBeatsLossApproximately) {
  const double loss = GetParam();
  const double q2 = queryability_under_loss(loss, 2, 1500);
  // At negligible slot-collision load, success ≈ 1 - loss^N.
  EXPECT_NEAR(q2, 1.0 - loss * loss, 0.03) << "loss=" << loss;
}

INSTANTIATE_TEST_SUITE_P(Rates, LossSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3));

TEST(LossRobustness, MoreRedundancyToleratesMoreLoss) {
  const double q1 = queryability_under_loss(0.3, 1, 1200);
  const double q2 = queryability_under_loss(0.3, 2, 1200);
  const double q4 = queryability_under_loss(0.3, 4, 1200);
  EXPECT_GT(q2, q1 + 0.1);
  EXPECT_GT(q4, q2);
  EXPECT_NEAR(q1, 0.7, 0.04);      // 1 - loss
  EXPECT_GT(q4, 0.985);            // 1 - 0.3^4 ≈ 0.992
}

TEST(LossRobustness, ZeroLossIsLossless) {
  EXPECT_DOUBLE_EQ(queryability_under_loss(0.0, 2, 300), 1.0);
}

TEST(LossRobustness, BurstyLossOnFabricLinkStillBounded) {
  // Gilbert-Elliott bursts on a single switch→collector link: average loss
  // ~= stationary mix; DART's per-key independence means queryability still
  // tracks 1 - E[loss]^2 reasonably (bursts correlate *consecutive* reports,
  // and a key's 2 reports are consecutive — so bursty loss is the WORST case
  // for DART; check it degrades but doesn't collapse).
  Xoshiro256 rng(5);
  net::GilbertElliottLoss ge(/*p_gb=*/0.02, /*p_bg=*/0.2, /*good=*/0.01,
                             /*bad=*/0.8);
  // Empirical average loss of this chain:
  int drops = 0;
  constexpr int kProbe = 200000;
  net::GilbertElliottLoss probe = ge;
  for (int i = 0; i < kProbe; ++i) drops += probe.drop(rng) ? 1 : 0;
  const double avg_loss = static_cast<double>(drops) / kProbe;
  // The chain's empirical rate must agree with the stationary analysis
  // (π_bad = p_gb/(p_gb+p_bg)): ≈ 0.0818 for these parameters. This pins the
  // drop-then-transition order — transitioning before sampling biases the
  // rate toward the bad state.
  EXPECT_NEAR(avg_loss, ge.stationary_loss_rate(), 0.01);
  EXPECT_NEAR(ge.stationary_loss_rate(), 0.0818, 0.0001);

  // Per-key: two consecutive trials through a fresh chain replica.
  Xoshiro256 rng2(7);
  net::GilbertElliottLoss chain = ge;
  int both_lost = 0;
  constexpr int kKeys = 100000;
  for (int i = 0; i < kKeys; ++i) {
    const bool l1 = chain.drop(rng2);
    const bool l2 = chain.drop(rng2);
    both_lost += (l1 && l2) ? 1 : 0;
  }
  const double p_fail = static_cast<double>(both_lost) / kKeys;
  // Correlation hurts: P(both lost) > avg_loss² (independent case)...
  EXPECT_GT(p_fail, avg_loss * avg_loss);
  // ...but stays well below avg_loss (a single copy's failure rate).
  EXPECT_LT(p_fail, avg_loss * 0.9);
}

}  // namespace
}  // namespace dart::telemetry
