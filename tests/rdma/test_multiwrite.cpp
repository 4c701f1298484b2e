// Tests for the §7 DTA multiwrite extension: wire format, RNIC execution,
// all-or-nothing semantics, and equivalence with N separate RDMA writes.
#include "rdma/multiwrite.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/collector.hpp"
#include "core/report_crafter.hpp"
#include "rdma/rnic.hpp"

namespace dart::rdma {
namespace {

std::vector<std::byte> payload_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

TEST(Multiwrite, EncodeParseRoundTrip) {
  const auto payload = payload_of(24, 0x42);
  const std::vector<std::uint64_t> vaddrs{0x1000, 0x2000, 0x3000};
  const auto wire = encode_multiwrite(0xCAFE, 7, vaddrs, payload);

  const auto mw = parse_multiwrite(wire);
  ASSERT_TRUE(mw.has_value());
  EXPECT_EQ(mw->rkey, 0xCAFEu);
  EXPECT_EQ(mw->psn, 7u);
  EXPECT_EQ(mw->vaddrs, vaddrs);
  ASSERT_EQ(mw->payload.size(), 24u);
  EXPECT_EQ(static_cast<std::uint8_t>(mw->payload[0]), 0x42);
}

TEST(Multiwrite, CrcCorruptionRejected) {
  auto wire = encode_multiwrite(1, 0, std::vector<std::uint64_t>{0x10},
                                payload_of(8, 1));
  wire[6] ^= std::byte{0x01};
  EXPECT_FALSE(parse_multiwrite(wire).has_value());
}

TEST(Multiwrite, BadCountsRejected) {
  // Zero targets.
  auto wire = encode_multiwrite(1, 0, {}, payload_of(8, 1));
  EXPECT_FALSE(parse_multiwrite(wire).has_value());
  // Too many targets.
  std::vector<std::uint64_t> many(kDtaMaxTargets + 1, 0x100);
  wire = encode_multiwrite(1, 0, many, payload_of(8, 1));
  EXPECT_FALSE(parse_multiwrite(wire).has_value());
}

TEST(Multiwrite, TruncatedRejected) {
  auto wire = encode_multiwrite(1, 0, std::vector<std::uint64_t>{0x10},
                                payload_of(8, 1));
  wire.resize(wire.size() - 6);
  EXPECT_FALSE(parse_multiwrite(wire).has_value());
}

// Fuzz-style robustness: every prefix of a valid frame must be rejected
// cleanly. Before the length guards, frames shorter than the CRC trailer
// underflowed the `size() - 4` subspan arithmetic.
TEST(Multiwrite, EveryTruncationRejectedWithoutCrash) {
  const auto wire = encode_multiwrite(
      0xCAFE, 9, std::vector<std::uint64_t>{0x1000, 0x2000, 0x3000},
      payload_of(24, 0x42));
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto prefix = std::span<const std::byte>(wire.data(), len);
    EXPECT_FALSE(parse_multiwrite(prefix).has_value()) << "prefix len " << len;
  }
  // The only accepted length is the exact frame.
  EXPECT_TRUE(parse_multiwrite(wire).has_value());
}

TEST(Multiwrite, TinyFramesRejected) {
  // 0..3 bytes: shorter than the CRC trailer alone.
  for (std::size_t len = 0; len < 4; ++len) {
    const std::vector<std::byte> junk(len, std::byte{0xFF});
    EXPECT_FALSE(parse_multiwrite(junk).has_value()) << "len " << len;
  }
}

TEST(Multiwrite, EverySingleByteFlipRejected) {
  // Any one-byte corruption breaks the CRC, so no flipped frame may parse
  // (and none may crash — lying count/data_len fields are the interesting
  // cases, and the CRC check must not be reachable with bad geometry).
  const auto wire = encode_multiwrite(
      0x1234, 3, std::vector<std::uint64_t>{0xA000, 0xB000}, payload_of(8, 7));
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t bit : {0x01, 0x80}) {
      auto mutant = wire;
      mutant[i] ^= static_cast<std::byte>(bit);
      EXPECT_FALSE(parse_multiwrite(mutant).has_value())
          << "byte " << i << " bit " << int(bit);
    }
  }
}

TEST(Multiwrite, LyingDataLengthRejected) {
  // Re-seal the CRC after inflating data_len so the parser reaches the
  // geometry checks: the declared data no longer fits the frame.
  auto body = encode_multiwrite(1, 0, std::vector<std::uint64_t>{0x10},
                                payload_of(8, 1));
  body.resize(body.size() - kDtaCrcLen);  // strip trailer
  body[12] = std::byte{0xFF};             // data_len big-endian high byte
  body[13] = std::byte{0xFF};
  const std::uint32_t crc = dart::crc32(body);
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  EXPECT_FALSE(parse_multiwrite(body).has_value());
}

TEST(Multiwrite, ZeroDataLengthRejected) {
  auto body = encode_multiwrite(1, 0, std::vector<std::uint64_t>{0x10},
                                payload_of(8, 1));
  body.resize(body.size() - kDtaCrcLen);
  body[12] = std::byte{0};  // data_len := 0 (reports always carry data)
  body[13] = std::byte{0};
  const std::uint32_t crc = dart::crc32(body);
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  EXPECT_FALSE(parse_multiwrite(body).has_value());
}

TEST(Multiwrite, FrameBytesSavingsFormula) {
  // 24 B slot payload, N=4: one multiwrite vs four RoCEv2 writes.
  const std::size_t dta = multiwrite_frame_bytes(4, 24);
  const std::size_t roce = 4 * roce_write_frame_bytes(24);
  EXPECT_LT(dta, roce / 3);  // >3x wire saving
}

// --- through the RNIC --------------------------------------------------------

class MultiwriteRnic : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.resize(4096);
    pd_ = rnic_.alloc_pd();
    auto mr = rnic_.register_mr(pd_, memory_, kBase, Access::kRemoteWrite);
    ASSERT_TRUE(mr.ok());
    rkey_ = mr.value().rkey;
    rnic_.set_dta_multiwrite(true);
  }

  std::vector<std::byte> frame(std::uint32_t rkey,
                               std::span<const std::uint64_t> vaddrs,
                               std::span<const std::byte> payload) {
    net::UdpFrameSpec spec;
    spec.src_ip = net::Ipv4Addr::from_octets(10, 0, 0, 1);
    spec.dst_ip = net::Ipv4Addr::from_octets(10, 0, 0, 2);
    spec.dst_port = kDtaUdpPort;
    return net::build_udp_frame(spec,
                                encode_multiwrite(rkey, 0, vaddrs, payload));
  }

  static constexpr std::uint64_t kBase = 0x4000'0000ull;
  SimulatedRnic rnic_;
  std::vector<std::byte> memory_;
  PdHandle pd_{};
  std::uint32_t rkey_ = 0;
};

TEST_F(MultiwriteRnic, OneFrameWritesAllTargets) {
  const auto payload = payload_of(16, 0xEE);
  const std::vector<std::uint64_t> vaddrs{kBase + 0, kBase + 512, kBase + 1024};
  const auto c = rnic_.process_frame(frame(rkey_, vaddrs, payload));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(rnic_.counters().multiwrite_frames, 1u);
  EXPECT_EQ(rnic_.counters().writes, 3u);
  for (const auto vaddr : vaddrs) {
    EXPECT_EQ(static_cast<std::uint8_t>(memory_[vaddr - kBase]), 0xEE);
    EXPECT_EQ(static_cast<std::uint8_t>(memory_[vaddr - kBase + 15]), 0xEE);
  }
}

TEST_F(MultiwriteRnic, DisabledExtensionIgnoresFrames) {
  rnic_.set_dta_multiwrite(false);
  const auto payload = payload_of(8, 1);
  const std::vector<std::uint64_t> vaddrs{kBase};
  EXPECT_FALSE(rnic_.process_frame(frame(rkey_, vaddrs, payload)).has_value());
  EXPECT_EQ(rnic_.counters().not_roce, 1u);
  EXPECT_EQ(static_cast<std::uint8_t>(memory_[0]), 0);
}

TEST_F(MultiwriteRnic, AllOrNothingOnBadTarget) {
  const auto payload = payload_of(16, 0x77);
  // Second target out of bounds: nothing may be written.
  const std::vector<std::uint64_t> vaddrs{kBase + 0, kBase + 4090};
  EXPECT_FALSE(rnic_.process_frame(frame(rkey_, vaddrs, payload)).has_value());
  EXPECT_EQ(rnic_.counters().out_of_bounds, 1u);
  EXPECT_EQ(static_cast<std::uint8_t>(memory_[0]), 0);
}

TEST_F(MultiwriteRnic, BadRkeyRejected) {
  const auto payload = payload_of(8, 1);
  const std::vector<std::uint64_t> vaddrs{kBase};
  EXPECT_FALSE(
      rnic_.process_frame(frame(0xBAD, vaddrs, payload)).has_value());
  EXPECT_EQ(rnic_.counters().bad_rkey, 1u);
}

// --- end-to-end with crafter + collector + query ------------------------------

TEST(MultiwriteEndToEnd, SwitchPipelineSingleFrameFillsAllSlots) {
  core::DartConfig cfg;
  cfg.n_slots = 4096;
  cfg.n_addresses = 4;
  cfg.value_bytes = 20;
  cfg.master_seed = 0xD7A;
  const core::CollectorEndpoint ep{{2, 0, 0, 0, 0, 1},
                                   net::Ipv4Addr::from_octets(10, 0, 100, 1)};
  core::Collector collector(cfg, 0, ep);
  collector.rnic().set_dta_multiwrite(true);

  const core::ReportCrafter crafter(cfg);
  core::ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);

  const std::string key = "multi-key";
  const auto kb = std::as_bytes(std::span{key.data(), key.size()});
  std::vector<std::byte> value(20, std::byte{0x3C});

  const auto tpl =
      crafter.make_multiwrite_template(collector.remote_info(), src);
  std::vector<std::byte> frame(tpl.frame_size());
  ASSERT_EQ(crafter.craft_multiwrite_into(tpl, kb, value, /*psn=*/0, frame),
            frame.size());
  ASSERT_TRUE(collector.rnic().process_frame(frame).has_value());
  EXPECT_EQ(collector.ingest_counters().writes, 4u);

  // All 4 copies present: consensus-2 (and plurality) find the value.
  const auto result = collector.query(kb, core::ReturnPolicy::kConsensusTwo);
  ASSERT_EQ(result.outcome, core::QueryOutcome::kFound);
  EXPECT_EQ(result.checksum_matches, 4u);
  EXPECT_EQ(result.value, value);
}

TEST(MultiwriteEndToEnd, MatchesNSeparateRoceWrites) {
  core::DartConfig cfg;
  cfg.n_slots = 4096;
  cfg.n_addresses = 2;
  cfg.value_bytes = 20;
  cfg.master_seed = 0xD7B;
  const core::CollectorEndpoint ep{{2, 0, 0, 0, 0, 1},
                                   net::Ipv4Addr::from_octets(10, 0, 100, 1)};
  core::Collector a(cfg, 0, ep);  // RoCEv2 path
  core::Collector b(cfg, 0, ep);  // DTA path
  b.rnic().set_dta_multiwrite(true);

  const core::ReportCrafter crafter(cfg);
  core::ReporterEndpoint src;

  const std::string key = "same-memory";
  const auto kb = std::as_bytes(std::span{key.data(), key.size()});
  std::vector<std::byte> value(20, std::byte{0x19});

  const auto write_tpl = crafter.make_write_template(a.remote_info(), src);
  std::vector<std::byte> frame(write_tpl.frame_size());
  for (std::uint32_t n = 0; n < 2; ++n) {
    crafter.craft_write_into(write_tpl, kb, value, n, n, frame);
    (void)a.rnic().process_frame(frame);
  }
  const auto mw_tpl = crafter.make_multiwrite_template(b.remote_info(), src);
  frame.resize(mw_tpl.frame_size());
  crafter.craft_multiwrite_into(mw_tpl, kb, value, 0, frame);
  (void)b.rnic().process_frame(frame);

  EXPECT_EQ(0, std::memcmp(a.store().memory().data(),
                           b.store().memory().data(),
                           a.store().memory().size()));
}

}  // namespace
}  // namespace dart::rdma
