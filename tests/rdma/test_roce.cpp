// Tests for the RoCEv2 wire format: BTH/RETH/AtomicETH round trips, request
// parsing, and iCRC computation/verification. The parse and iCRC cases run
// the layered reference in src/check/reference_roce, which the RoCE property
// diffs against the RNIC's classify_wire_frame.
#include "rdma/roce.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "check/reference_roce.hpp"

namespace dart::rdma {
namespace {

using check::reference_finalize_frame_icrc;
using check::reference_parse_atomic_eth;
using check::reference_parse_bth;
using check::reference_parse_request;
using check::reference_parse_reth;
using check::reference_verify_frame_icrc;

TEST(Bth, RoundTrip) {
  Bth h;
  h.opcode = Opcode::kRcRdmaWriteOnly;
  h.solicited = true;
  h.mig_req = false;
  h.pad_count = 2;
  h.pkey = 0xABCD;
  h.dest_qp = 0x123456;
  h.ack_req = true;
  h.psn = 0x00ABCDEF;

  std::vector<std::byte> buf;
  BufWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kBthLen);

  BufReader r(buf);
  const auto parsed = reference_parse_bth(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode, Opcode::kRcRdmaWriteOnly);
  EXPECT_TRUE(parsed->solicited);
  EXPECT_FALSE(parsed->mig_req);
  EXPECT_EQ(parsed->pad_count, 2);
  EXPECT_EQ(parsed->pkey, 0xABCD);
  EXPECT_EQ(parsed->dest_qp, 0x123456u);
  EXPECT_TRUE(parsed->ack_req);
  EXPECT_EQ(parsed->psn, 0x00ABCDEFu);
}

TEST(Bth, PsnAndQpAre24Bit) {
  Bth h;
  h.dest_qp = 0xFFFFFFFF;  // should truncate to 24 bits on the wire
  h.psn = 0xFFFFFFFF;
  std::vector<std::byte> buf;
  BufWriter w(buf);
  h.serialize(w);
  BufReader r(buf);
  const auto parsed = reference_parse_bth(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dest_qp, 0x00FFFFFFu);
  EXPECT_EQ(parsed->psn, 0x00FFFFFFu);
}

TEST(Bth, UnknownOpcodeRejected) {
  std::vector<std::byte> buf(kBthLen, std::byte{0});
  buf[0] = std::byte{0x0C};  // RDMA READ REQUEST — unsupported by this model
  BufReader r(buf);
  EXPECT_FALSE(reference_parse_bth(r).has_value());
}

TEST(Reth, RoundTrip) {
  Reth h;
  h.vaddr = 0x0000100000000020ull;
  h.rkey = 0xDEADBEEF;
  h.dma_length = 24;
  std::vector<std::byte> buf;
  BufWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kRethLen);
  BufReader r(buf);
  const auto parsed = reference_parse_reth(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->vaddr, h.vaddr);
  EXPECT_EQ(parsed->rkey, h.rkey);
  EXPECT_EQ(parsed->dma_length, 24u);
}

TEST(AtomicEth, RoundTrip) {
  AtomicEth h;
  h.vaddr = 0x1000;
  h.rkey = 0x42;
  h.swap_add = 0x1111222233334444ull;
  h.compare = 0x5555666677778888ull;
  std::vector<std::byte> buf;
  BufWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kAtomicEthLen);
  BufReader r(buf);
  const auto parsed = reference_parse_atomic_eth(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->swap_add, h.swap_add);
  EXPECT_EQ(parsed->compare, h.compare);
}

TEST(OpcodeClassifiers, Classify) {
  EXPECT_TRUE(is_write(Opcode::kRcRdmaWriteOnly));
  EXPECT_TRUE(is_write(Opcode::kUcRdmaWriteOnly));
  EXPECT_FALSE(is_write(Opcode::kRcFetchAdd));
  EXPECT_TRUE(is_atomic(Opcode::kRcCompareSwap));
  EXPECT_TRUE(is_atomic(Opcode::kRcFetchAdd));
  EXPECT_FALSE(is_atomic(Opcode::kUcRdmaWriteOnly));
  EXPECT_TRUE(is_unreliable(Opcode::kUcRdmaWriteOnly));
  EXPECT_FALSE(is_unreliable(Opcode::kRcRdmaWriteOnly));
}

TEST(ParseRequest, WriteWithPayload) {
  Bth bth;
  bth.opcode = Opcode::kRcRdmaWriteOnly;
  bth.dest_qp = 0x100;
  bth.psn = 7;
  Reth reth;
  reth.vaddr = 0x2000;
  reth.rkey = 9;
  std::vector<std::byte> payload(24, std::byte{0x5A});
  reth.dma_length = 24;

  std::vector<std::byte> buf;
  BufWriter w(buf);
  serialize_write(w, bth, reth, payload);

  const auto req = reference_parse_request(buf);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->bth.dest_qp, 0x100u);
  ASSERT_TRUE(req->reth.has_value());
  EXPECT_EQ(req->reth->vaddr, 0x2000u);
  ASSERT_EQ(req->payload.size(), 24u);
  EXPECT_EQ(static_cast<std::uint8_t>(req->payload[0]), 0x5A);
}

TEST(ParseRequest, DmaLengthMismatchRejected) {
  Bth bth;
  bth.opcode = Opcode::kRcRdmaWriteOnly;
  Reth reth;
  reth.dma_length = 99;  // lies about the payload size
  std::vector<std::byte> payload(24, std::byte{1});
  std::vector<std::byte> buf;
  BufWriter w(buf);
  serialize_write(w, bth, reth, payload);
  EXPECT_FALSE(reference_parse_request(buf).has_value());
}

TEST(ParseRequest, AtomicHasNoPayload) {
  Bth bth;
  bth.opcode = Opcode::kRcFetchAdd;
  AtomicEth aeth;
  aeth.vaddr = 0x88;
  aeth.swap_add = 5;
  std::vector<std::byte> buf;
  BufWriter w(buf);
  serialize_atomic(w, bth, aeth);

  const auto req = reference_parse_request(buf);
  ASSERT_TRUE(req.has_value());
  ASSERT_TRUE(req->atomic_eth.has_value());
  EXPECT_EQ(req->atomic_eth->swap_add, 5u);
  EXPECT_TRUE(req->payload.empty());
}

TEST(ParseRequest, TooShortRejected) {
  std::vector<std::byte> buf(kBthLen + kIcrcLen - 1, std::byte{0});
  EXPECT_FALSE(reference_parse_request(buf).has_value());
}

// --- iCRC over full frames -----------------------------------------------------

std::vector<std::byte> make_frame(std::span<const std::byte> payload_bytes) {
  Bth bth;
  bth.opcode = Opcode::kRcRdmaWriteOnly;
  bth.dest_qp = 0x100;
  Reth reth;
  reth.vaddr = 0x1000;
  reth.rkey = 0xAB;
  reth.dma_length = static_cast<std::uint32_t>(payload_bytes.size());

  std::vector<std::byte> roce;
  BufWriter w(roce);
  serialize_write(w, bth, reth, payload_bytes);

  net::UdpFrameSpec spec;
  spec.src_ip = net::Ipv4Addr::from_octets(1, 2, 3, 4);
  spec.dst_ip = net::Ipv4Addr::from_octets(5, 6, 7, 8);
  spec.src_port = 0xC000;
  spec.dst_port = net::kRoceV2UdpPort;
  return net::build_udp_frame(spec, roce);
}

TEST(Icrc, FinalizeThenVerify) {
  std::vector<std::byte> payload(24, std::byte{0x11});
  auto frame = make_frame(payload);
  EXPECT_FALSE(reference_verify_frame_icrc(frame));  // placeholder iCRC is zero
  ASSERT_TRUE(reference_finalize_frame_icrc(frame));
  EXPECT_TRUE(reference_verify_frame_icrc(frame));
}

TEST(Icrc, PayloadCorruptionDetected) {
  std::vector<std::byte> payload(24, std::byte{0x11});
  auto frame = make_frame(payload);
  ASSERT_TRUE(reference_finalize_frame_icrc(frame));
  frame[frame.size() - kIcrcLen - 1] ^= std::byte{0x01};  // flip payload bit
  EXPECT_FALSE(reference_verify_frame_icrc(frame));
}

TEST(Icrc, InvariantToTtlChange) {
  // The iCRC masks TTL (it changes hop by hop); rewriting TTL and fixing the
  // IP checksum must keep the iCRC valid — that's the "invariant" in iCRC.
  std::vector<std::byte> payload(8, std::byte{0x22});
  auto frame = make_frame(payload);
  ASSERT_TRUE(reference_finalize_frame_icrc(frame));
  ASSERT_TRUE(reference_verify_frame_icrc(frame));

  // Decrement TTL (offset 14+8=22) and recompute the IPv4 header checksum.
  frame[22] = static_cast<std::byte>(static_cast<std::uint8_t>(frame[22]) - 1);
  frame[24] = frame[25] = std::byte{0};
  std::uint32_t sum = 0;
  for (int i = 14; i < 34; i += 2) {
    sum += (static_cast<std::uint32_t>(static_cast<std::uint8_t>(frame[i])) << 8) |
           static_cast<std::uint8_t>(frame[i + 1]);
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const std::uint16_t csum = static_cast<std::uint16_t>(~sum);
  frame[24] = static_cast<std::byte>(csum >> 8);
  frame[25] = static_cast<std::byte>(csum & 0xFF);

  EXPECT_TRUE(reference_verify_frame_icrc(frame));
}

TEST(Icrc, BthCorruptionDetected) {
  std::vector<std::byte> payload(8, std::byte{0x33});
  auto frame = make_frame(payload);
  ASSERT_TRUE(reference_finalize_frame_icrc(frame));
  // Flip the PSN byte (inside BTH, covered by iCRC).
  frame[frame.size() - kIcrcLen - payload.size() - 1] ^= std::byte{0x80};
  EXPECT_FALSE(reference_verify_frame_icrc(frame));
}

TEST(Icrc, MalformedFrameRejected) {
  std::vector<std::byte> junk(10, std::byte{1});
  EXPECT_FALSE(reference_finalize_frame_icrc(junk));
  EXPECT_FALSE(reference_verify_frame_icrc(junk));
}

}  // namespace
}  // namespace dart::rdma
