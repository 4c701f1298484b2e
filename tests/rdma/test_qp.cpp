// Tests for queue-pair PSN policies — the loss-tolerance semantics DART
// receivers need (switches never retransmit reports).
#include "rdma/qp.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/collector.hpp"
#include "core/report_crafter.hpp"
#include "net/netsim.hpp"
#include "rdma/rnic.hpp"

namespace dart::rdma {
namespace {

TEST(QueuePair, StrictAcceptsOnlyExpected) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kStrict);
  EXPECT_TRUE(qp.accept_psn(0));
  EXPECT_TRUE(qp.accept_psn(1));
  EXPECT_FALSE(qp.accept_psn(3));  // gap not allowed
  EXPECT_FALSE(qp.accept_psn(1));  // duplicate
  EXPECT_TRUE(qp.accept_psn(2));
  EXPECT_EQ(qp.counters().accepted, 3u);
  EXPECT_EQ(qp.counters().psn_stale, 2u);
}

TEST(QueuePair, TolerateLossAcceptsGaps) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kTolerateLoss);
  EXPECT_TRUE(qp.accept_psn(0));
  EXPECT_TRUE(qp.accept_psn(5));  // 4 reports lost
  EXPECT_EQ(qp.counters().psn_gaps, 4u);
  EXPECT_FALSE(qp.accept_psn(3));  // behind the window: stale
  EXPECT_EQ(qp.counters().psn_stale, 1u);
  EXPECT_TRUE(qp.accept_psn(6));
  EXPECT_EQ(qp.counters().accepted, 3u);
}

TEST(QueuePair, TolerateLossRejectsDuplicates) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kTolerateLoss);
  EXPECT_TRUE(qp.accept_psn(10));
  EXPECT_FALSE(qp.accept_psn(10));
}

TEST(QueuePair, PsnWrapsAt24Bits) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kTolerateLoss);
  qp.set_expected_psn(0x00FFFFFF);
  EXPECT_TRUE(qp.accept_psn(0x00FFFFFF));
  // Expected is now 0 (wrapped); PSN 0 must be accepted as "next".
  EXPECT_EQ(qp.expected_psn(), 0u);
  EXPECT_TRUE(qp.accept_psn(0));
  EXPECT_TRUE(qp.accept_psn(1));
}

TEST(QueuePair, HalfWindowBoundary) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kTolerateLoss);
  qp.set_expected_psn(0);
  // Just under half the 24-bit space ahead: accepted as loss.
  EXPECT_TRUE(qp.accept_psn(0x007FFFFF));
  // Now something "behind" by a lot must be stale.
  EXPECT_FALSE(qp.accept_psn(0x00000005));
}

// Regression: gap accounting across the 24-bit wraparound. With expected
// 0xFFFFFF, receiving 0x000001 means exactly two reports (0xFFFFFF and
// 0x000000) were lost — not 2^24 + 2, and not 1 or 3.
TEST(QueuePair, GapAccountingAcrossWraparound) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kTolerateLoss);
  qp.set_expected_psn(0x00FFFFFF);
  EXPECT_TRUE(qp.accept_psn(0x00000001));
  EXPECT_EQ(qp.counters().psn_gaps, 2u);
  EXPECT_EQ(qp.expected_psn(), 2u);
  // The sequence continues in order with no phantom gaps.
  EXPECT_TRUE(qp.accept_psn(2));
  EXPECT_TRUE(qp.accept_psn(3));
  EXPECT_EQ(qp.counters().psn_gaps, 2u);
  EXPECT_EQ(qp.counters().accepted, 3u);
}

TEST(QueuePair, NoGapOnLosslessWraparound) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kTolerateLoss);
  qp.set_expected_psn(0x00FFFFFE);
  EXPECT_TRUE(qp.accept_psn(0x00FFFFFE));
  EXPECT_TRUE(qp.accept_psn(0x00FFFFFF));
  EXPECT_TRUE(qp.accept_psn(0x00000000));
  EXPECT_TRUE(qp.accept_psn(0x00000001));
  EXPECT_EQ(qp.counters().psn_gaps, 0u);
  EXPECT_EQ(qp.counters().accepted, 4u);
}

TEST(QueuePair, StaleJustBehindWraparound) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kTolerateLoss);
  qp.set_expected_psn(1);
  // 0xFFFFFF is 2 behind expected=1 across the wrap: a duplicate, not a
  // 2^24-2 gap.
  EXPECT_FALSE(qp.accept_psn(0x00FFFFFF));
  EXPECT_EQ(qp.counters().psn_stale, 1u);
  EXPECT_EQ(qp.counters().psn_gaps, 0u);
}

namespace {
// Discards everything — exists only to own the sender end of a lossy link.
struct NullNode final : net::Node {
  void receive(net::Packet, std::uint64_t) override {}
};
}  // namespace

// Ground truth: stream K consecutive-PSN reports over a netsim lossy link
// into a kTolerateLoss QP and reconcile the QP's gap counter against the
// link's authoritative drop count. Drops after the last delivered report are
// invisible to the receiver (nothing arrives to reveal them), so
//   accepted  == link delivered
//   psn_gaps  == dropped − trailing drops == expected_psn − accepted.
TEST(QueuePair, GapCounterMatchesNetsimGroundTruth) {
  core::DartConfig config;
  config.n_slots = 1 << 12;

  rdma::SimulatedRnic rnic(0xBEEF);
  const auto pd = rnic.alloc_pd();
  std::vector<std::byte> memory(config.memory_bytes(), std::byte{0});
  auto mr = rnic.register_mr(pd, memory, core::Collector::kDefaultBaseVaddr,
                             Access::kRemoteWrite);
  ASSERT_TRUE(mr.ok());
  constexpr std::uint32_t kQpn = 0x123;
  ASSERT_TRUE(rnic.create_qp(kQpn, QpType::kRc, pd, PsnPolicy::kTolerateLoss)
                  .ok());

  core::RemoteStoreInfo dst;
  dst.qpn = kQpn;
  dst.rkey = mr.value().rkey;
  dst.base_vaddr = core::Collector::kDefaultBaseVaddr;
  dst.n_slots = config.n_slots;
  dst.slot_bytes = config.slot_bytes();

  net::Simulator sim(99);
  NullNode sender;
  const auto src_id = sim.add_node(sender);
  const auto dst_id = sim.add_node(rnic);
  const auto link = sim.add_link(src_id, dst_id, /*latency_ns=*/100,
                                 std::make_unique<net::BernoulliLoss>(0.25));

  const core::ReportCrafter crafter(config);
  const auto tpl = crafter.make_write_template(dst, core::ReporterEndpoint{});
  const std::vector<std::byte> value(config.value_bytes, std::byte{0x42});
  constexpr std::uint32_t kReports = 400;
  for (std::uint32_t psn = 0; psn < kReports; ++psn) {
    std::vector<std::byte> key(8);
    std::memcpy(key.data(), &psn, 4);
    std::vector<std::byte> frame(tpl.frame_size());
    crafter.craft_write_into(tpl, key, value, 0, psn, frame);
    sim.send(src_id, dst_id, net::Packet(std::move(frame)));
  }
  sim.run();

  const auto& stats = sim.link_stats(link);
  ASSERT_EQ(stats.delivered + stats.dropped, kReports);
  ASSERT_GT(stats.dropped, 0u);  // 0.25 loss over 400 frames can't be all-pass

  const QueuePair* qp = rnic.qps().find(kQpn);
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(qp->counters().accepted, stats.delivered);
  EXPECT_EQ(rnic.counters().psn_rejected, 0u);  // in-order: nothing stale
  // expected_psn is one past the last delivered report, so this identity
  // pins psn_gaps to the exact number of observable drops.
  EXPECT_EQ(qp->counters().psn_gaps,
            qp->expected_psn() - qp->counters().accepted);
  const std::uint64_t trailing = kReports - qp->expected_psn();
  EXPECT_EQ(qp->counters().psn_gaps, stats.dropped - trailing);
}

TEST(QueuePair, UcAcceptsEverything) {
  QueuePair qp(1, QpType::kUc, 1, PsnPolicy::kStrict);
  EXPECT_TRUE(qp.accept_psn(100));
  EXPECT_TRUE(qp.accept_psn(5));
  EXPECT_TRUE(qp.accept_psn(5));
  EXPECT_EQ(qp.counters().accepted, 3u);
}

TEST(QueuePair, IgnorePolicyAcceptsEverything) {
  QueuePair qp(1, QpType::kRc, 1, PsnPolicy::kIgnore);
  EXPECT_TRUE(qp.accept_psn(7));
  EXPECT_TRUE(qp.accept_psn(7));
}

TEST(QpRegistry, CreateAndFind) {
  QpRegistry reg;
  EXPECT_TRUE(reg.create(0x100, QpType::kRc, 1).ok());
  EXPECT_NE(reg.find(0x100), nullptr);
  EXPECT_EQ(reg.find(0x101), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(QpRegistry, DuplicateQpnRejected) {
  QpRegistry reg;
  ASSERT_TRUE(reg.create(5, QpType::kRc, 1).ok());
  const auto st = reg.create(5, QpType::kUc, 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "qp_exists");
}

TEST(QpRegistry, QpnMustBe24Bit) {
  QpRegistry reg;
  const auto st = reg.create(0x01000000, QpType::kRc, 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "bad_qpn");
}

}  // namespace
}  // namespace dart::rdma
