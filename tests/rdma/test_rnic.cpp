// Tests for the simulated RNIC: the full inbound validation pipeline and the
// WRITE / FETCH_ADD / COMPARE_SWAP execution paths.
#include "rdma/rnic.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/reference_roce.hpp"
#include "core/collector.hpp"
#include "core/report_crafter.hpp"

namespace dart::rdma {
namespace {

using check::reference_finalize_frame_icrc;

// Harness: an RNIC with one MR and one RC QP, plus a frame factory.
class RnicFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(4096);
    pd_ = rnic_.alloc_pd();
    auto mr = rnic_.register_mr(pd_, memory_, kBase,
                                Access::kRemoteWrite | Access::kRemoteAtomic);
    ASSERT_TRUE(mr.ok());
    rkey_ = mr.value().rkey;
    ASSERT_TRUE(rnic_.create_qp(kQpn, QpType::kRc, pd_).ok());
  }

  // Builds a finalized WRITE frame.
  std::vector<std::byte> write_frame(std::uint64_t vaddr,
                                     std::span<const std::byte> payload,
                                     std::uint32_t psn,
                                     std::uint32_t rkey_override = 0,
                                     std::uint32_t qpn_override = 0) {
    Bth bth;
    bth.opcode = Opcode::kRcRdmaWriteOnly;
    bth.dest_qp = qpn_override ? qpn_override : kQpn;
    bth.psn = psn;
    Reth reth;
    reth.vaddr = vaddr;
    reth.rkey = rkey_override ? rkey_override : rkey_;
    reth.dma_length = static_cast<std::uint32_t>(payload.size());

    std::vector<std::byte> roce;
    BufWriter w(roce);
    serialize_write(w, bth, reth, payload);
    auto frame = net::build_udp_frame(frame_spec(), roce);
    EXPECT_TRUE(reference_finalize_frame_icrc(frame));
    return frame;
  }

  std::vector<std::byte> atomic_frame(Opcode op, std::uint64_t vaddr,
                                      std::uint64_t swap_add,
                                      std::uint64_t compare,
                                      std::uint32_t psn) {
    Bth bth;
    bth.opcode = op;
    bth.dest_qp = kQpn;
    bth.psn = psn;
    AtomicEth aeth;
    aeth.vaddr = vaddr;
    aeth.rkey = rkey_;
    aeth.swap_add = swap_add;
    aeth.compare = compare;
    std::vector<std::byte> roce;
    BufWriter w(roce);
    serialize_atomic(w, bth, aeth);
    auto frame = net::build_udp_frame(frame_spec(), roce);
    EXPECT_TRUE(reference_finalize_frame_icrc(frame));
    return frame;
  }

  static net::UdpFrameSpec frame_spec() {
    net::UdpFrameSpec spec;
    spec.src_ip = net::Ipv4Addr::from_octets(10, 0, 0, 1);
    spec.dst_ip = net::Ipv4Addr::from_octets(10, 0, 0, 2);
    spec.src_port = 0xC123;
    spec.dst_port = net::kRoceV2UdpPort;
    return spec;
  }

  [[nodiscard]] std::uint64_t read_u64(std::size_t off) const {
    std::uint64_t v;
    std::memcpy(&v, memory_.data() + off, 8);
    return v;
  }

  static constexpr std::uint64_t kBase = 0x0000'1000'0000'0000ull;
  static constexpr std::uint32_t kQpn = 0x100;

  SimulatedRnic rnic_;
  std::vector<std::byte> memory_;
  PdHandle pd_{};
  std::uint32_t rkey_ = 0;
};

TEST_F(RnicFixture, WriteLandsInMemory) {
  std::vector<std::byte> payload{std::byte{0xDE}, std::byte{0xAD},
                                 std::byte{0xBE}, std::byte{0xEF}};
  const auto frame = write_frame(kBase + 64, payload, 0);
  const auto c = rnic_.process_frame(frame);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->opcode, Opcode::kRcRdmaWriteOnly);
  EXPECT_EQ(c->vaddr, kBase + 64);
  EXPECT_EQ(c->length, 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(memory_[64]), 0xDE);
  EXPECT_EQ(static_cast<std::uint8_t>(memory_[67]), 0xEF);
  EXPECT_EQ(rnic_.counters().writes, 1u);
  EXPECT_EQ(rnic_.counters().executed, 1u);
}

TEST_F(RnicFixture, BadIcrcDropped) {
  std::vector<std::byte> payload(8, std::byte{1});
  auto frame = write_frame(kBase, payload, 0);
  frame[frame.size() - 2] ^= std::byte{0xFF};  // corrupt the iCRC
  EXPECT_FALSE(rnic_.process_frame(frame).has_value());
  EXPECT_EQ(rnic_.counters().bad_icrc, 1u);
  EXPECT_EQ(rnic_.counters().executed, 0u);
}

TEST_F(RnicFixture, IcrcValidationCanBeDisabled) {
  rnic_.set_validate_icrc(false);
  std::vector<std::byte> payload(8, std::byte{1});
  auto frame = write_frame(kBase, payload, 0);
  frame[frame.size() - 2] ^= std::byte{0xFF};
  EXPECT_TRUE(rnic_.process_frame(frame).has_value());
}

TEST_F(RnicFixture, BadRkeyDropped) {
  std::vector<std::byte> payload(8, std::byte{1});
  const auto frame = write_frame(kBase, payload, 0, /*rkey=*/0xBAD);
  EXPECT_FALSE(rnic_.process_frame(frame).has_value());
  EXPECT_EQ(rnic_.counters().bad_rkey, 1u);
}

TEST_F(RnicFixture, UnknownQpDropped) {
  std::vector<std::byte> payload(8, std::byte{1});
  const auto frame = write_frame(kBase, payload, 0, 0, /*qpn=*/0x999);
  EXPECT_FALSE(rnic_.process_frame(frame).has_value());
  EXPECT_EQ(rnic_.counters().unknown_qp, 1u);
}

TEST_F(RnicFixture, OutOfBoundsWriteDropped) {
  std::vector<std::byte> payload(16, std::byte{1});
  const auto frame = write_frame(kBase + 4090, payload, 0);  // 4090+16 > 4096
  EXPECT_FALSE(rnic_.process_frame(frame).has_value());
  EXPECT_EQ(rnic_.counters().out_of_bounds, 1u);
  // Memory untouched.
  EXPECT_EQ(read_u64(4088 - 8), 0u);
}

TEST_F(RnicFixture, StalePsnDropped) {
  std::vector<std::byte> payload(8, std::byte{1});
  ASSERT_TRUE(rnic_.process_frame(write_frame(kBase, payload, 10)).has_value());
  // PSN 5 is behind: dropped by the loss-tolerant window.
  EXPECT_FALSE(rnic_.process_frame(write_frame(kBase, payload, 5)).has_value());
  EXPECT_EQ(rnic_.counters().psn_rejected, 1u);
  // Gap ahead is fine.
  EXPECT_TRUE(rnic_.process_frame(write_frame(kBase, payload, 100)).has_value());
}

TEST_F(RnicFixture, NonRoceFrameCounted) {
  auto spec = frame_spec();
  spec.dst_port = 53;  // not 4791
  const auto frame = net::build_udp_frame(spec, {});
  EXPECT_FALSE(rnic_.process_frame(frame).has_value());
  EXPECT_EQ(rnic_.counters().not_roce, 1u);
}

TEST_F(RnicFixture, FetchAddAccumulates) {
  const auto f1 = atomic_frame(Opcode::kRcFetchAdd, kBase + 8, 5, 0, 0);
  const auto c1 = rnic_.process_frame(f1);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->atomic_prior, 0u);
  const auto f2 = atomic_frame(Opcode::kRcFetchAdd, kBase + 8, 7, 0, 1);
  const auto c2 = rnic_.process_frame(f2);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->atomic_prior, 5u);
  EXPECT_EQ(read_u64(8), 12u);
  EXPECT_EQ(rnic_.counters().fetch_adds, 2u);
}

TEST_F(RnicFixture, CompareSwapSemantics) {
  // CAS on zeroed memory with compare=0 succeeds.
  const auto f1 =
      atomic_frame(Opcode::kRcCompareSwap, kBase + 16, 0xAAAA, 0, 0);
  const auto c1 = rnic_.process_frame(f1);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->atomic_prior, 0u);
  EXPECT_EQ(read_u64(16), 0xAAAAu);
  // Second CAS with stale compare fails (memory unchanged), still completes.
  const auto f2 =
      atomic_frame(Opcode::kRcCompareSwap, kBase + 16, 0xBBBB, 0, 1);
  const auto c2 = rnic_.process_frame(f2);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->atomic_prior, 0xAAAAu);
  EXPECT_EQ(read_u64(16), 0xAAAAu);
  EXPECT_EQ(rnic_.counters().cas_mismatches, 1u);
}

TEST_F(RnicFixture, UnalignedAtomicRejected) {
  const auto f = atomic_frame(Opcode::kRcFetchAdd, kBase + 3, 1, 0, 0);
  EXPECT_FALSE(rnic_.process_frame(f).has_value());
  EXPECT_EQ(rnic_.counters().unaligned_atomic, 1u);
}

TEST_F(RnicFixture, AccessFlagsEnforced) {
  // Register a write-only MR; atomics must be denied.
  std::vector<std::byte> mem2(256);
  auto mr = rnic_.register_mr(pd_, mem2, 0x2000'0000, Access::kRemoteWrite);
  ASSERT_TRUE(mr.ok());

  Bth bth;
  bth.opcode = Opcode::kRcFetchAdd;
  bth.dest_qp = kQpn;
  bth.psn = 0;
  AtomicEth aeth;
  aeth.vaddr = 0x2000'0000;
  aeth.rkey = mr.value().rkey;
  aeth.swap_add = 1;
  std::vector<std::byte> roce;
  BufWriter w(roce);
  serialize_atomic(w, bth, aeth);
  auto frame = net::build_udp_frame(frame_spec(), roce);
  ASSERT_TRUE(reference_finalize_frame_icrc(frame));

  EXPECT_FALSE(rnic_.process_frame(frame).has_value());
  EXPECT_EQ(rnic_.counters().access_denied, 1u);
}

TEST_F(RnicFixture, CompletionHookFires) {
  int calls = 0;
  rnic_.set_completion_hook([&](const Completion& c) {
    ++calls;
    EXPECT_EQ(c.opcode, Opcode::kRcRdmaWriteOnly);
  });
  std::vector<std::byte> payload(8, std::byte{2});
  ASSERT_TRUE(rnic_.process_frame(write_frame(kBase, payload, 0)).has_value());
  EXPECT_EQ(calls, 1);
}

TEST_F(RnicFixture, UcOpcodeOnRcQpRejected) {
  Bth bth;
  bth.opcode = Opcode::kUcRdmaWriteOnly;
  bth.dest_qp = kQpn;  // RC QP
  bth.psn = 0;
  Reth reth;
  reth.vaddr = kBase;
  reth.rkey = rkey_;
  reth.dma_length = 8;
  std::vector<std::byte> payload(8, std::byte{1});
  std::vector<std::byte> roce;
  BufWriter w(roce);
  serialize_write(w, bth, reth, payload);
  auto frame = net::build_udp_frame(frame_spec(), roce);
  ASSERT_TRUE(reference_finalize_frame_icrc(frame));
  EXPECT_FALSE(rnic_.process_frame(frame).has_value());
  EXPECT_EQ(rnic_.counters().bad_opcode, 1u);
}

}  // namespace
}  // namespace dart::rdma
