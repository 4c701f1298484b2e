// Unit tests for byte-order helpers and the BufWriter/BufReader pair.
#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

namespace dart {
namespace {

TEST(Byteswap, Swap16) {
  EXPECT_EQ(byteswap16(0x1234), 0x3412);
  EXPECT_EQ(byteswap16(0x0000), 0x0000);
  EXPECT_EQ(byteswap16(0xFFFF), 0xFFFF);
  EXPECT_EQ(byteswap16(0x00FF), 0xFF00);
}

TEST(Byteswap, Swap32) {
  EXPECT_EQ(byteswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(byteswap32(0xAABBCCDDu), 0xDDCCBBAAu);
}

TEST(Byteswap, Swap64) {
  EXPECT_EQ(byteswap64(0x0102030405060708ull), 0x0807060504030201ull);
}

TEST(Byteswap, InvolutionProperty) {
  for (std::uint32_t v : {0u, 1u, 0x12345678u, 0xFFFFFFFFu, 0x80000001u}) {
    EXPECT_EQ(byteswap32(byteswap32(v)), v);
  }
}

TEST(HostNet, RoundTrips) {
  EXPECT_EQ(net_to_host16(host_to_net16(0xBEEF)), 0xBEEF);
  EXPECT_EQ(net_to_host32(host_to_net32(0xDEADBEEFu)), 0xDEADBEEFu);
  EXPECT_EQ(net_to_host64(host_to_net64(0x0123456789ABCDEFull)),
            0x0123456789ABCDEFull);
}

// The pointer loads and stores read and write network order at an
// unaligned offset, and agree with BufWriter's bytes.
TEST(HostNet, LoadsAndStoresAtPointer) {
  std::array<std::byte, 15> buf{};
  store_be16(buf.data() + 1, 0x1234);
  store_be32(buf.data() + 3, 0x89ABCDEFu);
  store_be64(buf.data() + 7, 0x0102030405060708ull);
  std::vector<std::byte> want{std::byte{0}};
  BufWriter w(want);
  w.be16(0x1234);
  w.be32(0x89ABCDEFu);
  w.be64(0x0102030405060708ull);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), buf.begin()));
  EXPECT_EQ(load_be16(buf.data() + 1), 0x1234);
  EXPECT_EQ(load_be32(buf.data() + 3), 0x89ABCDEFu);
  EXPECT_EQ(load_be64(buf.data() + 7), 0x0102030405060708ull);
}

TEST(BufWriter, WritesBigEndian) {
  std::vector<std::byte> out;
  BufWriter w(out);
  w.be16(0x1234);
  w.be32(0xAABBCCDDu);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(static_cast<std::uint8_t>(out[0]), 0x12);
  EXPECT_EQ(static_cast<std::uint8_t>(out[1]), 0x34);
  EXPECT_EQ(static_cast<std::uint8_t>(out[2]), 0xAA);
  EXPECT_EQ(static_cast<std::uint8_t>(out[5]), 0xDD);
}

TEST(BufWriter, ZerosAndBytes) {
  std::vector<std::byte> out;
  BufWriter w(out);
  w.zeros(3);
  const std::array<std::byte, 2> data{std::byte{0xAB}, std::byte{0xCD}};
  w.bytes(data);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(static_cast<std::uint8_t>(out[2]), 0x00);
  EXPECT_EQ(static_cast<std::uint8_t>(out[3]), 0xAB);
}

TEST(BufReaderWriter, RoundTripAllWidths) {
  std::vector<std::byte> out;
  BufWriter w(out);
  w.u8(0x42);
  w.be16(0xBEEF);
  w.be32(0xCAFEBABEu);
  w.be64(0x1122334455667788ull);

  BufReader r(out);
  EXPECT_EQ(r.u8(), 0x42);
  EXPECT_EQ(r.be16(), 0xBEEF);
  EXPECT_EQ(r.be32(), 0xCAFEBABEu);
  EXPECT_EQ(r.be64(), 0x1122334455667788ull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BufReader, UnderflowTaintsAndReturnsZero) {
  const std::array<std::byte, 3> data{std::byte{1}, std::byte{2}, std::byte{3}};
  BufReader r(data);
  EXPECT_EQ(r.be16(), 0x0102);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.be32(), 0u);  // only 1 byte left
  EXPECT_FALSE(r.ok());
}

TEST(BufReader, UnderflowIsSticky) {
  BufReader r({});
  (void)r.u8();
  EXPECT_FALSE(r.ok());
  // Reads keep failing; no UB, no throw.
  EXPECT_EQ(r.be64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(BufReader, ViewAndSkip) {
  std::vector<std::byte> out;
  BufWriter w(out);
  w.be32(0x01020304u);
  w.be32(0x05060708u);

  BufReader r(out);
  r.skip(2);
  const auto v = r.view(4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(v[0]), 0x03);
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(BufReader, ViewPastEndReturnsEmpty) {
  const std::array<std::byte, 2> data{};
  BufReader r(data);
  EXPECT_TRUE(r.view(3).empty());
  EXPECT_FALSE(r.ok());
}

TEST(BufReader, BytesUnderflowZeroFills) {
  const std::array<std::byte, 2> data{std::byte{0xAA}, std::byte{0xBB}};
  BufReader r(data);
  std::array<std::byte, 4> out{std::byte{0xFF}, std::byte{0xFF},
                               std::byte{0xFF}, std::byte{0xFF}};
  r.bytes(out);
  EXPECT_FALSE(r.ok());
  for (const auto b : out) EXPECT_EQ(static_cast<std::uint8_t>(b), 0x00);
}

TEST(HexDump, FormatsAndTruncates) {
  const std::array<std::byte, 4> data{std::byte{0xDE}, std::byte{0xAD},
                                      std::byte{0xBE}, std::byte{0xEF}};
  EXPECT_EQ(hex_dump(data), "de ad be ef");
  EXPECT_EQ(hex_dump(data, 2), "de ad ...");
}

}  // namespace
}  // namespace dart
