// Tests for the RoCEv2 report crafter: frame validity, slot addressing, the
// write/atomic operation encodings, and byte identity of template frames
// with the field-by-field reference serializers.
#include "core/report_crafter.hpp"

#include <gtest/gtest.h>

#include <string>

#include "check/reference_crafter.hpp"
#include "check/reference_roce.hpp"
#include "rdma/roce.hpp"

namespace dart::core {
namespace {

DartConfig config() {
  DartConfig cfg;
  cfg.n_slots = 4096;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 20;
  cfg.master_seed = 0xDA27;
  return cfg;
}

RemoteStoreInfo dst_info() {
  RemoteStoreInfo info;
  info.collector_id = 1;
  info.mac = {0x02, 0xC0, 0, 0, 0, 1};
  info.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  info.qpn = 0x101;
  info.rkey = 0xCAFE;
  info.base_vaddr = 0x0000'1000'0000'0000ull;
  info.n_slots = 4096;
  info.slot_bytes = 24;
  return info;
}

ReporterEndpoint src_info() {
  ReporterEndpoint src;
  src.mac = {0x02, 0x5A, 0, 0, 0, 9};
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 9);
  return src;
}

std::span<const std::byte> bytes_of(const std::string& s) {
  return std::as_bytes(std::span{s.data(), s.size()});
}

// One frame crafted through a fresh template of the given kind.
std::vector<std::byte> write_frame(const ReportCrafter& crafter,
                                   const std::string& key,
                                   std::span<const std::byte> value,
                                   std::uint32_t n, std::uint32_t psn) {
  const auto tpl = crafter.make_write_template(dst_info(), src_info());
  std::vector<std::byte> frame(tpl.frame_size());
  EXPECT_EQ(crafter.craft_write_into(tpl, bytes_of(key), value, n, psn, frame),
            frame.size());
  return frame;
}

std::vector<std::byte> atomic_frame(const ReportCrafter& crafter,
                                    rdma::Opcode op, std::uint64_t vaddr,
                                    std::uint64_t compare, std::uint64_t swap,
                                    std::uint32_t psn) {
  const auto tpl = crafter.make_atomic_template(dst_info(), src_info(), op);
  std::vector<std::byte> frame(tpl.frame_size());
  const std::size_t len =
      op == rdma::Opcode::kRcFetchAdd
          ? crafter.craft_fetch_add_into(tpl, vaddr, swap, psn, frame)
          : crafter.craft_compare_swap_into(tpl, vaddr, compare, swap, psn,
                                            frame);
  EXPECT_EQ(len, frame.size());
  return frame;
}

TEST(ReportCrafter, WriteFrameIsValidAndAddressed) {
  const ReportCrafter crafter(config());
  const std::string key = "flow-A";
  std::vector<std::byte> value(20, std::byte{0x42});
  const auto frame = write_frame(crafter, key, value, 0, 5);

  EXPECT_TRUE(check::reference_verify_frame_icrc(frame));
  const auto parsed = net::parse_udp_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.src, src_info().ip);
  EXPECT_EQ(parsed->ip.dst, dst_info().ip);

  const auto req = check::reference_parse_request(parsed->payload);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->bth.psn, 5u);
  EXPECT_EQ(req->bth.dest_qp, 0x101u);
  EXPECT_EQ(req->reth->rkey, 0xCAFEu);
  EXPECT_EQ(req->reth->vaddr,
            crafter.slot_vaddr(dst_info(), bytes_of(key), 0));
  EXPECT_EQ(req->reth->dma_length, 24u);  // checksum(4) + value(20)
}

TEST(ReportCrafter, SlotVaddrUsesHashFamily) {
  const ReportCrafter crafter(config());
  const HashFamily family(2, 0xDA27);
  const std::string key = "flow-B";
  for (std::uint32_t n = 0; n < 2; ++n) {
    const auto idx = family.address_of(bytes_of(key), n, 4096);
    EXPECT_EQ(crafter.slot_vaddr(dst_info(), bytes_of(key), n),
              dst_info().base_vaddr + idx * 24);
  }
}

TEST(ReportCrafter, PayloadPrefixIsKeyChecksum) {
  const ReportCrafter crafter(config());
  const std::string key = "flow-C";
  std::vector<std::byte> value(20, std::byte{0x01});
  const auto frame = write_frame(crafter, key, value, 1, 0);
  const auto parsed = net::parse_udp_frame(frame);
  const auto req = check::reference_parse_request(parsed->payload);
  ASSERT_TRUE(req.has_value());

  const HashFamily family(2, 0xDA27);
  const std::uint32_t want = family.checksum_of(bytes_of(key), 32);
  std::uint32_t got = 0;
  std::memcpy(&got, req->payload.data(), 4);
  EXPECT_EQ(got, want);
  // Value follows.
  EXPECT_EQ(static_cast<std::uint8_t>(req->payload[4]), 0x01);
}

TEST(ReportCrafter, CollectorOfMatchesFamily) {
  const ReportCrafter crafter(config());
  const HashFamily family(2, 0xDA27);
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(crafter.collector_of(bytes_of(key), 16),
              family.collector_of(bytes_of(key), 16));
  }
}

TEST(ReportCrafter, FetchAddFrame) {
  const ReportCrafter crafter(config());
  const auto frame = atomic_frame(crafter, rdma::Opcode::kRcFetchAdd,
                                  0x0000'1000'0000'0040ull, 0, 7, 3);
  EXPECT_TRUE(check::reference_verify_frame_icrc(frame));
  const auto parsed = net::parse_udp_frame(frame);
  const auto req = check::reference_parse_request(parsed->payload);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->bth.opcode, rdma::Opcode::kRcFetchAdd);
  ASSERT_TRUE(req->atomic_eth.has_value());
  EXPECT_EQ(req->atomic_eth->vaddr, 0x0000'1000'0000'0040ull);
  EXPECT_EQ(req->atomic_eth->swap_add, 7u);
  EXPECT_EQ(req->bth.psn, 3u);
}

TEST(ReportCrafter, CompareSwapFrame) {
  const ReportCrafter crafter(config());
  const auto frame =
      atomic_frame(crafter, rdma::Opcode::kRcCompareSwap,
                   0x0000'1000'0000'0080ull, /*compare=*/0, /*swap=*/0xAA, 9);
  EXPECT_TRUE(check::reference_verify_frame_icrc(frame));
  const auto parsed = net::parse_udp_frame(frame);
  const auto req = check::reference_parse_request(parsed->payload);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->bth.opcode, rdma::Opcode::kRcCompareSwap);
  EXPECT_EQ(req->atomic_eth->compare, 0u);
  EXPECT_EQ(req->atomic_eth->swap_add, 0xAAu);
}

TEST(ReportCrafter, ReportSizeMatchesPaperFraming) {
  // §2 footnote: a 64B packet ≈ 28B headers + 36B report data. Our INT
  // report: Eth(14)+IP(20)+UDP(8)+BTH(12)+RETH(16)+payload(24)+iCRC(4).
  const ReportCrafter crafter(config());
  const std::string key = "flow-D";
  std::vector<std::byte> value(20, std::byte{0});
  const auto frame = write_frame(crafter, key, value, 0, 0);
  EXPECT_EQ(frame.size(), 14u + 20 + 8 + 12 + 16 + 24 + 4);
}

// --- FrameTemplate: byte identity with the reference serializers -----------
//
// For every operation kind, craft_*_into through a template must produce
// frames byte-identical to check::ReferenceCrafter's field-by-field
// serializers — including the iCRC / DTA trailer, which the template path
// computes from a cached prefix CRC state. tests/check/test_prop_craft.cpp
// runs the same comparison over random geometry and endpoints.

TEST(FrameTemplate, WriteByteIdenticalAcrossKeysAndPsns) {
  const ReportCrafter crafter(config());
  const check::ReferenceCrafter reference(config());
  const auto tpl = crafter.make_write_template(dst_info(), src_info());
  ASSERT_TRUE(tpl.valid());
  ASSERT_EQ(tpl.kind(), FrameTemplate::Kind::kWrite);

  std::vector<std::byte> out(tpl.frame_size());
  const std::uint32_t psns[] = {0, 1, 5, 0x00FF'FFFFu, 0x1234'5678u};
  for (int i = 0; i < 8; ++i) {
    const std::string key = "flow-" + std::to_string(i);
    std::vector<std::byte> value(20, static_cast<std::byte>(0x10 + i));
    for (const std::uint32_t psn : psns) {
      for (std::uint32_t n = 0; n < 2; ++n) {
        const auto ref = reference.craft_write(dst_info(), src_info(),
                                               bytes_of(key), value, n, psn);
        const std::size_t len =
            crafter.craft_write_into(tpl, bytes_of(key), value, n, psn, out);
        ASSERT_EQ(len, ref.size());
        EXPECT_EQ(std::vector<std::byte>(out.begin(), out.begin() + len), ref)
            << "key=" << key << " n=" << n << " psn=" << psn;
      }
    }
  }
}

TEST(FrameTemplate, FetchAddByteIdentical) {
  const ReportCrafter crafter(config());
  const check::ReferenceCrafter reference(config());
  const auto tpl = crafter.make_atomic_template(dst_info(), src_info(),
                                                rdma::Opcode::kRcFetchAdd);
  ASSERT_TRUE(tpl.valid());
  ASSERT_EQ(tpl.kind(), FrameTemplate::Kind::kFetchAdd);

  std::vector<std::byte> out(tpl.frame_size());
  const std::uint64_t vaddrs[] = {0x0000'1000'0000'0040ull,
                                  0x0000'1000'0000'FFF8ull};
  for (const std::uint64_t vaddr : vaddrs) {
    for (std::uint64_t addend : {std::uint64_t{0}, std::uint64_t{7},
                                 std::uint64_t{0xFFFF'FFFF'FFFF'FFFFull}}) {
      for (const std::uint32_t psn : {0u, 3u, 0x00FF'FFFFu}) {
        const auto ref = reference.craft_fetch_add(dst_info(), src_info(),
                                                   vaddr, addend, psn);
        const std::size_t len =
            crafter.craft_fetch_add_into(tpl, vaddr, addend, psn, out);
        ASSERT_EQ(len, ref.size());
        EXPECT_EQ(std::vector<std::byte>(out.begin(), out.begin() + len), ref);
      }
    }
  }
}

TEST(FrameTemplate, CompareSwapByteIdentical) {
  const ReportCrafter crafter(config());
  const check::ReferenceCrafter reference(config());
  const auto tpl = crafter.make_atomic_template(dst_info(), src_info(),
                                                rdma::Opcode::kRcCompareSwap);
  ASSERT_TRUE(tpl.valid());
  ASSERT_EQ(tpl.kind(), FrameTemplate::Kind::kCompareSwap);

  std::vector<std::byte> out(tpl.frame_size());
  for (const std::uint64_t compare : {std::uint64_t{0}, std::uint64_t{0xAA}}) {
    for (const std::uint64_t swap :
         {std::uint64_t{0xAA}, std::uint64_t{0xDEAD'BEEF'CAFE'F00Dull}}) {
      for (const std::uint32_t psn : {9u, 0x00FF'FFFFu}) {
        const auto ref = reference.craft_compare_swap(
            dst_info(), src_info(), 0x0000'1000'0000'0080ull, compare, swap,
            psn);
        const std::size_t len = crafter.craft_compare_swap_into(
            tpl, 0x0000'1000'0000'0080ull, compare, swap, psn, out);
        ASSERT_EQ(len, ref.size());
        EXPECT_EQ(std::vector<std::byte>(out.begin(), out.begin() + len), ref);
      }
    }
  }
}

TEST(FrameTemplate, MultiwriteByteIdentical) {
  const ReportCrafter crafter(config());
  const check::ReferenceCrafter reference(config());
  const auto tpl = crafter.make_multiwrite_template(dst_info(), src_info());
  ASSERT_TRUE(tpl.valid());
  ASSERT_EQ(tpl.kind(), FrameTemplate::Kind::kMultiwrite);

  std::vector<std::byte> out(tpl.frame_size());
  for (int i = 0; i < 8; ++i) {
    const std::string key = "mw-" + std::to_string(i);
    std::vector<std::byte> value(20, static_cast<std::byte>(0x33 + i));
    for (const std::uint32_t psn : {0u, 77u, 0xFFFF'FFFFu}) {
      const auto ref = reference.craft_multiwrite(dst_info(), src_info(),
                                                  bytes_of(key), value, psn);
      const std::size_t len =
          crafter.craft_multiwrite_into(tpl, bytes_of(key), value, psn, out);
      ASSERT_EQ(len, ref.size());
      EXPECT_EQ(std::vector<std::byte>(out.begin(), out.begin() + len), ref)
          << "key=" << key << " psn=" << psn;
    }
  }
}

TEST(FrameTemplate, TemplateFramesVerifyAndParse) {
  // Independent of byte identity: the RNIC's receive path accepts template
  // frames on its own terms.
  const ReportCrafter crafter(config());
  const auto tpl = crafter.make_write_template(dst_info(), src_info());
  std::vector<std::byte> out(tpl.frame_size());
  const std::string key = "flow-X";
  std::vector<std::byte> value(20, std::byte{0x55});
  ASSERT_NE(crafter.craft_write_into(tpl, bytes_of(key), value, 1, 42, out),
            0u);
  const auto cls = rdma::classify_wire_frame(out, /*check_icrc=*/true);
  ASSERT_EQ(cls.verdict, rdma::WireClass::Verdict::kOk);
  EXPECT_EQ(cls.req.bth.psn, 42u);
  EXPECT_EQ(cls.req.reth->vaddr,
            crafter.slot_vaddr(dst_info(), bytes_of(key), 1));
}

TEST(FrameTemplate, RejectsKindMismatchAndUndersizedBuffer) {
  const ReportCrafter crafter(config());
  const auto write_tpl = crafter.make_write_template(dst_info(), src_info());
  const auto fa_tpl = crafter.make_atomic_template(dst_info(), src_info(),
                                                   rdma::Opcode::kRcFetchAdd);
  const std::string key = "flow-Y";
  std::vector<std::byte> value(20, std::byte{0});
  std::vector<std::byte> out(write_tpl.frame_size());

  // Kind mismatch: a write template refuses atomic crafting and vice versa.
  EXPECT_EQ(crafter.craft_fetch_add_into(write_tpl, 0x1000, 1, 0, out), 0u);
  EXPECT_EQ(crafter.craft_write_into(fa_tpl, bytes_of(key), value, 0, 0, out),
            0u);

  // Undersized output buffer.
  std::vector<std::byte> small(write_tpl.frame_size() - 1);
  EXPECT_EQ(
      crafter.craft_write_into(write_tpl, bytes_of(key), value, 0, 0, small),
      0u);

  // Default-constructed template is invalid and crafts nothing.
  const FrameTemplate none;
  EXPECT_FALSE(none.valid());
  EXPECT_EQ(crafter.craft_write_into(none, bytes_of(key), value, 0, 0, out),
            0u);

  // An opcode that is not an atomic yields an invalid template.
  EXPECT_FALSE(crafter
                   .make_atomic_template(dst_info(), src_info(),
                                         rdma::Opcode::kRcRdmaWriteOnly)
                   .valid());
}

}  // namespace
}  // namespace dart::core
