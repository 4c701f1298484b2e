// Tests for bandwidth-shaped links: serialization delay, queue build-up,
// tail drop, and queue-depth observation.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "net/netsim.hpp"

namespace dart::net {
namespace {

class SinkNode final : public Node {
 public:
  void receive(Packet packet, std::uint64_t now_ns) override {
    sizes.push_back(packet.size());
    times.push_back(now_ns);
  }
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> times;
};

Packet make_packet(std::size_t n) {
  return Packet(std::vector<std::byte>(n, std::byte{0x11}));
}

TEST(LinkShaping, SerializationDelayAddsToLatency) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  // 1 Gbps: a 1000-byte packet serializes in 8 µs.
  sim.add_link(na, nb, /*latency_ns=*/1000, nullptr,
               LinkShape{.bandwidth_bps = 1'000'000'000});

  sim.send(na, nb, make_packet(1000));
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 8000u + 1000u);
}

TEST(LinkShaping, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  sim.add_link(na, nb, 0, nullptr, LinkShape{.bandwidth_bps = 1'000'000'000});

  for (int i = 0; i < 3; ++i) sim.send(na, nb, make_packet(1000));
  sim.run();
  ASSERT_EQ(b.times.size(), 3u);
  EXPECT_EQ(b.times[0], 8000u);
  EXPECT_EQ(b.times[1], 16000u);  // waited for the first
  EXPECT_EQ(b.times[2], 24000u);
}

TEST(LinkShaping, QueueDepthVisibleWhileBacklogged) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  const auto link = sim.add_link(na, nb, 0, nullptr,
                                 LinkShape{.bandwidth_bps = 1'000'000'000});

  for (int i = 0; i < 5; ++i) sim.send(na, nb, make_packet(1000));
  // Before draining, all 5 sit in the egress queue.
  EXPECT_EQ(sim.link_queue_depth(na, nb), 5u);
  sim.run();
  EXPECT_EQ(sim.link_queue_depth(na, nb), 0u);
  EXPECT_EQ(sim.link_stats(link).max_queue, 5u);
}

TEST(LinkShaping, FullQueueTailDrops) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  const auto link =
      sim.add_link(na, nb, 0, nullptr,
                   LinkShape{.bandwidth_bps = 1'000'000'000, .queue_cap = 3});

  for (int i = 0; i < 10; ++i) sim.send(na, nb, make_packet(1000));
  sim.run();
  EXPECT_EQ(b.sizes.size(), 3u);
  EXPECT_EQ(sim.link_stats(link).queue_drops, 7u);
}

TEST(LinkShaping, IdleLinkResumesAtLineRate) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  sim.add_link(na, nb, 0, nullptr, LinkShape{.bandwidth_bps = 1'000'000'000});

  sim.send(na, nb, make_packet(1000));
  sim.run();  // drains; link idle again
  // New packet at t=8000 must not queue behind ghosts.
  sim.schedule(100'000, [&] { sim.send(na, nb, make_packet(1000)); });
  sim.run();
  ASSERT_EQ(b.times.size(), 2u);
  EXPECT_EQ(b.times[1], 108'000u);
}

TEST(LinkShaping, UnshapedLinkHasNoQueue) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  sim.add_link(na, nb, 500);
  for (int i = 0; i < 100; ++i) sim.send(na, nb, make_packet(1500));
  EXPECT_EQ(sim.link_queue_depth(na, nb), 0u);
  sim.run();
  EXPECT_EQ(b.sizes.size(), 100u);
  // All delivered at the same instant (pure propagation).
  EXPECT_EQ(b.times.front(), b.times.back());
}

// A departure is not a heap event, but it takes effect in event order:
// after every event scheduled before it at the same instant, before every
// event scheduled after it, and when a run(until) that passes it returns.

TEST(LinkShaping, PartialRunRetiresDepartureAndRestsClockOnIt) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  // 1 Gb/s: a 1000-byte packet departs at 8000 and arrives at 9000.
  sim.add_link(na, nb, /*latency_ns=*/1000, nullptr,
               LinkShape{.bandwidth_bps = 1'000'000'000});
  sim.send(na, nb, make_packet(1000));

  sim.run(7999);
  EXPECT_EQ(sim.now_ns(), 0u);
  EXPECT_EQ(sim.link_queue_depth(na, nb), 1u);
  // run(8500) stops between departure and arrival: the clock rests on the
  // departure and the queue is empty.
  sim.run(8500);
  EXPECT_EQ(sim.now_ns(), 8000u);
  EXPECT_EQ(sim.link_queue_depth(na, nb), 0u);
  EXPECT_TRUE(b.times.empty());
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 9000u);
  EXPECT_EQ(sim.now_ns(), 9000u);
}

TEST(LinkShaping, CallbackAtDepartureInstantSeesItOnlyIfScheduledAfter) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  sim.add_link(na, nb, 1000, nullptr,
               LinkShape{.bandwidth_bps = 1'000'000'000});

  std::vector<std::uint32_t> depths;
  const auto sample = [&] { depths.push_back(sim.link_queue_depth(na, nb)); };
  sim.schedule(8000, sample);             // scheduled before the departure
  sim.send(na, nb, make_packet(1000));    // departs at 8000
  sim.schedule(8000, sample);             // scheduled after it
  sim.run();
  EXPECT_EQ(depths, (std::vector<std::uint32_t>{1, 0}));
}

TEST(LinkShaping, TailDropAtTheQueueCapBoundary) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  const auto link =
      sim.add_link(na, nb, 0, nullptr,
                   LinkShape{.bandwidth_bps = 1'000'000'000, .queue_cap = 2});

  // At 8000 the first packet departs. A send scheduled before that
  // departure still finds the queue full; one scheduled after it fits.
  sim.schedule(8000, [&] { sim.send(na, nb, make_packet(1000)); });
  for (int i = 0; i < 3; ++i) sim.send(na, nb, make_packet(1000));
  EXPECT_EQ(sim.link_stats(link).queue_drops, 1u);  // the third
  sim.schedule(8000, [&] { sim.send(na, nb, make_packet(1000)); });
  sim.run();

  EXPECT_EQ(sim.link_stats(link).queue_drops, 2u);
  EXPECT_EQ(sim.link_stats(link).delivered, 3u);
  EXPECT_EQ(sim.link_stats(link).max_queue, 2u);
  EXPECT_EQ(b.times, (std::vector<std::uint64_t>{8000, 16000, 24000}));
}

TEST(LinkShaping, QueueThatNeverDrainsKeepsExactDepth) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  const auto link = sim.add_link(na, nb, 0, nullptr,
                                 LinkShape{.bandwidth_bps = 1'000'000'000});

  // Every 8 µs, two 1000-byte packets arrive and one leaves: packet j
  // departs at (j + 1) * 8000, so at tick k the queue holds k before the
  // two sends and k + 2 after.
  constexpr std::uint64_t kTicks = 200;
  std::vector<std::uint32_t> depths;
  std::function<void()> tick = [&] {
    sim.send(na, nb, make_packet(1000));
    sim.send(na, nb, make_packet(1000));
    depths.push_back(sim.link_queue_depth(na, nb));
    if (depths.size() < kTicks) sim.schedule(sim.now_ns() + 8000, tick);
  };
  sim.schedule(0, tick);
  sim.run();

  ASSERT_EQ(depths.size(), kTicks);
  for (std::uint32_t k = 0; k < kTicks; ++k) EXPECT_EQ(depths[k], k + 2);
  EXPECT_EQ(sim.link_stats(link).max_queue, kTicks + 1);
  ASSERT_EQ(b.times.size(), 2 * kTicks);
  for (std::uint64_t j = 0; j < b.times.size(); ++j) {
    EXPECT_EQ(b.times[j], (j + 1) * 8000);
  }
  EXPECT_EQ(sim.link_queue_depth(na, nb), 0u);
}

TEST(LinkShaping, ParallelLinksUseTheFirstAdded) {
  Simulator sim(1);
  SinkNode a, b;
  const auto na = sim.add_node(a);
  const auto nb = sim.add_node(b);
  const auto first = sim.add_link(na, nb, 100, nullptr,
                                  LinkShape{.bandwidth_bps = 1'000'000'000});
  const auto second = sim.add_link(na, nb, 5000);  // unshaped, never used

  sim.send(na, nb, make_packet(1000));
  EXPECT_EQ(sim.link_queue_depth(na, nb), 1u);  // the shaped first link
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 8100u);
  EXPECT_EQ(sim.link_stats(first).delivered, 1u);
  EXPECT_EQ(sim.link_stats(second).delivered, 0u);
}

TEST(LinkShaping, UnknownLinkQueueDepthIsZero) {
  Simulator sim(1);
  SinkNode a;
  const auto na = sim.add_node(a);
  EXPECT_EQ(sim.link_queue_depth(na, na), 0u);
}

}  // namespace
}  // namespace dart::net
