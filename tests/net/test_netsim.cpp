// Tests for the event-driven network simulator and its loss models.
#include "net/netsim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace dart::net {
namespace {

// Test node that records deliveries.
class SinkNode final : public Node {
 public:
  void receive(Packet packet, std::uint64_t now_ns) override {
    sizes.push_back(packet.size());
    times.push_back(now_ns);
  }
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> times;
};

// Node that forwards everything to a fixed next hop.
class ForwardNode final : public Node {
 public:
  explicit ForwardNode(NodeId* next) : next_(next) {}
  void receive(Packet packet, std::uint64_t) override {
    sim_->send(self_, *next_, std::move(packet));
  }

 private:
  NodeId* next_;
};

// Node that logs each delivered packet's size into a shared event log.
class LogNode final : public Node {
 public:
  explicit LogNode(std::vector<int>* log) : log_(log) {}
  void receive(Packet packet, std::uint64_t) override {
    log_->push_back(static_cast<int>(packet.size()));
  }

 private:
  std::vector<int>* log_;
};

Packet make_packet(std::size_t n) {
  return Packet(std::vector<std::byte>(n, std::byte{0xEE}));
}

TEST(Simulator, DeliversWithLatency) {
  Simulator sim(1);
  SinkNode src;
  SinkNode dst;
  const auto a = sim.add_node(src);
  const auto b = sim.add_node(dst);
  sim.add_link(a, b, /*latency_ns=*/500);

  sim.send(a, b, make_packet(10));
  sim.run();

  ASSERT_EQ(dst.sizes.size(), 1u);
  EXPECT_EQ(dst.sizes[0], 10u);
  EXPECT_EQ(dst.times[0], 500u);
}

TEST(Simulator, MultiHopAccumulatesLatency) {
  Simulator sim(1);
  SinkNode end;
  NodeId end_id{};
  ForwardNode mid(&end_id);
  SinkNode start;
  const auto a = sim.add_node(start);
  const auto m = sim.add_node(mid);
  end_id = sim.add_node(end);
  sim.add_link(a, m, 100);
  sim.add_link(m, end_id, 250);

  sim.send(a, m, make_packet(1));
  sim.run();

  ASSERT_EQ(end.times.size(), 1u);
  EXPECT_EQ(end.times[0], 350u);
}

TEST(Simulator, EventOrderingIsByTimeThenFifo) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule(200, [&] { order.push_back(2); });
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(200, [&] { order.push_back(3); });  // same time: FIFO by seq
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, DeliveryAndTimerAtOneInstantFireInScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  SinkNode src;
  LogNode dst(&order);
  const auto a = sim.add_node(src);
  const auto b = sim.add_node(dst);
  sim.add_link(a, b, /*latency_ns=*/500);

  sim.schedule(500, [&] { order.push_back(1); });
  sim.send(a, b, make_packet(2));  // delivered at 500
  sim.schedule(500, [&] { order.push_back(3); });
  sim.send(a, b, make_packet(4));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now_ns(), 500u);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim(1);
  int fired = 0;
  sim.schedule(100, [&] { ++fired; });
  sim.schedule(1000, [&] { ++fired; });
  sim.run(/*until_ns=*/500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now_ns(), 100u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// run(until) looks at the event due next without committing to it: events
// scheduled after it returns may still run first, a past time clamped to
// the clock.
TEST(Simulator, RunUntilLeavesLaterEventsBehindNewOnes) {
  Simulator sim(1);
  std::vector<std::uint64_t> fired;
  const auto record = [&] { fired.push_back(sim.now_ns()); };
  sim.schedule(100, record);
  sim.schedule(1000, record);
  sim.run(/*until_ns=*/500);
  ASSERT_EQ(fired, (std::vector<std::uint64_t>{100}));
  sim.schedule(600, record);
  sim.schedule(0, record);  // clamped to the clock, 100
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{100, 100, 600, 1000}));
}

// Two callbacks for one instant, the first scheduled before the event queue
// regroups the pending events at the 600 ns pop, the second after it: they
// fire in the order they were scheduled.
TEST(Simulator, SameInstantFiresInScheduleOrderAcrossRegrouping) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule(1000, [&] { order.push_back(1); });
  sim.schedule(600, [&] {
    order.push_back(0);
    sim.schedule(1000, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, BernoulliLossDropsApproximatelyP) {
  Simulator sim(7);
  SinkNode src;
  SinkNode dst;
  const auto a = sim.add_node(src);
  const auto b = sim.add_node(dst);
  const auto link =
      sim.add_link(a, b, 10, std::make_unique<BernoulliLoss>(0.3));

  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sim.send(a, b, make_packet(1));
  sim.run();

  const auto& stats = sim.link_stats(link);
  EXPECT_EQ(stats.delivered + stats.dropped, static_cast<std::uint64_t>(kN));
  EXPECT_NEAR(static_cast<double>(stats.dropped) / kN, 0.3, 0.02);
  EXPECT_EQ(dst.sizes.size(), stats.delivered);
}

TEST(Simulator, NoLossDeliversEverything) {
  Simulator sim(3);
  SinkNode src, dst;
  const auto a = sim.add_node(src);
  const auto b = sim.add_node(dst);
  sim.connect(a, b, 10, 0.0);
  for (int i = 0; i < 100; ++i) sim.send(a, b, make_packet(1));
  sim.run();
  EXPECT_EQ(dst.sizes.size(), 100u);
  EXPECT_EQ(sim.total_dropped(), 0u);
  EXPECT_EQ(sim.total_delivered(), 100u);
}

TEST(GilbertElliott, BurstyLossIsBurstier) {
  // Same average loss, but GE should produce longer loss runs than
  // independent Bernoulli loss.
  Xoshiro256 rng(123);
  GilbertElliottLoss ge(/*p_gb=*/0.01, /*p_bg=*/0.1, /*loss_good=*/0.001,
                        /*loss_bad=*/0.6);
  int max_run = 0;
  int run = 0;
  int losses = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (ge.drop(rng)) {
      ++losses;
      ++run;
      max_run = std::max(max_run, run);
    } else {
      run = 0;
    }
  }
  EXPECT_GT(losses, 0);
  EXPECT_GE(max_run, 3) << "expected loss bursts from the bad state";
}

TEST(GilbertElliott, ZeroRatesNeverDrop) {
  Xoshiro256 rng(5);
  GilbertElliottLoss ge(0.5, 0.5, 0.0, 0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(ge.drop(rng));
}

// Regression for the drop/transition ordering: the CURRENT state decides a
// packet's fate, then the chain transitions. With loss_good=0 and a certain
// good→bad transition, the first packet sampled in the good state must
// never drop — transitioning first would drop it with the bad state's rate.
TEST(GilbertElliott, FirstPacketSampledInInitialState) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Xoshiro256 rng(seed);
    GilbertElliottLoss ge(/*p_gb=*/1.0, /*p_bg=*/0.0, /*loss_good=*/0.0,
                          /*loss_bad=*/1.0);
    EXPECT_FALSE(ge.drop(rng)) << "seed " << seed;  // sampled in good state
    EXPECT_TRUE(ge.in_bad_state());                 // then transitioned
    EXPECT_TRUE(ge.drop(rng));                      // now stuck in bad
  }
  // Mirror image: start in good with loss_good=1 → first packet always drops
  // even when the chain immediately leaves the state afterwards.
  Xoshiro256 rng(7);
  GilbertElliottLoss ge(/*p_gb=*/1.0, /*p_bg=*/1.0, /*loss_good=*/1.0,
                        /*loss_bad=*/0.0);
  EXPECT_TRUE(ge.drop(rng));
}

TEST(GilbertElliott, EmpiricalRateMatchesStationaryFormula) {
  // π_bad = p_gb/(p_gb+p_bg); E[loss] = (1-π)·loss_good + π·loss_bad.
  Xoshiro256 rng(11);
  GilbertElliottLoss ge(/*p_gb=*/0.05, /*p_bg=*/0.25, /*loss_good=*/0.01,
                        /*loss_bad=*/0.7);
  const double expected = ge.stationary_loss_rate();
  EXPECT_NEAR(expected, (0.25 / 0.30) * 0.01 + (0.05 / 0.30) * 0.7, 1e-12);
  int drops = 0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) drops += ge.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / kN, expected, 0.01);
}

TEST(LossModel, CloneReplicatesParametersAndInitialState) {
  GilbertElliottLoss ge(1.0, 0.0, 0.0, 1.0);
  Xoshiro256 rng(3);
  (void)ge.drop(rng);  // drive the original into the bad state
  ASSERT_TRUE(ge.in_bad_state());

  // The clone starts from the INITIAL state (good), not the current one,
  // and an identical RNG stream must produce identical behaviour.
  const auto replica = ge.clone();
  Xoshiro256 ra(42), rb(42);
  GilbertElliottLoss fresh(1.0, 0.0, 0.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(replica->drop(ra), fresh.drop(rb)) << "packet " << i;
  }

  // Bernoulli / NoLoss clones behave identically to their originals too.
  BernoulliLoss bern(0.5);
  const auto bclone = bern.clone();
  Xoshiro256 rc(9), rd(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(bern.drop(rc), bclone->drop(rd));
  NoLoss none;
  EXPECT_FALSE(none.clone()->drop(rc));
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    SinkNode src, dst;
    const auto a = sim.add_node(src);
    const auto b = sim.add_node(dst);
    sim.add_link(a, b, 10, std::make_unique<BernoulliLoss>(0.5));
    for (int i = 0; i < 1000; ++i) sim.send(a, b, make_packet(1));
    sim.run();
    return dst.sizes.size();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));  // overwhelmingly likely
}

}  // namespace
}  // namespace dart::net
