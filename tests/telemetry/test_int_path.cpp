// Tests for the INT metadata stack and its DART value encoding.
#include "telemetry/int_path.hpp"

#include <gtest/gtest.h>

namespace dart::telemetry {
namespace {

TEST(IntStack, PushAndHopLimit) {
  IntStack stack(/*max_hops=*/3);
  EXPECT_TRUE(stack.push_hop({.switch_id = 1}));
  EXPECT_TRUE(stack.push_hop({.switch_id = 2}));
  EXPECT_TRUE(stack.push_hop({.switch_id = 3}));
  EXPECT_FALSE(stack.push_hop({.switch_id = 4}));  // over the limit
  EXPECT_EQ(stack.hop_count(), 3u);
}

TEST(IntStack, EncodeSwitchIdsBigEndianWithPadding) {
  IntStack stack;
  stack.push_hop({.switch_id = 0x01020304});
  stack.push_hop({.switch_id = 5});
  const auto value = stack.encode_value(20);
  ASSERT_TRUE(value.has_value());
  ASSERT_EQ(value->size(), 20u);
  EXPECT_EQ(static_cast<std::uint8_t>((*value)[0]), 0x01);
  EXPECT_EQ(static_cast<std::uint8_t>((*value)[3]), 0x04);
  EXPECT_EQ(static_cast<std::uint8_t>((*value)[7]), 5);
  // Padding is zero.
  for (std::size_t i = 8; i < 20; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>((*value)[i]), 0);
  }
}

TEST(IntStack, EncodeFailsWhenTooLong) {
  IntStack stack;
  for (std::uint32_t h = 0; h < 6; ++h) {
    stack.push_hop({.switch_id = h + 1});
  }
  EXPECT_FALSE(stack.encode_value(20).has_value());  // 24 B > 20 B
  EXPECT_TRUE(stack.encode_value(24).has_value());
}

TEST(IntStack, DecodeRoundTrip) {
  IntStack stack;
  const std::vector<std::uint32_t> ids{7, 12, 99, 4, 1};
  for (const auto id : ids) stack.push_hop({.switch_id = id});
  const auto value = stack.encode_value(20);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(IntStack::decode_switch_ids(*value), ids);
}

TEST(IntStack, DecodeStopsAtZeroPadding) {
  IntStack stack;
  stack.push_hop({.switch_id = 42});
  const auto value = stack.encode_value(20);
  const auto ids = IntStack::decode_switch_ids(*value);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 42u);
}

TEST(IntStack, DecodeWithExpectedHops) {
  IntStack stack;
  stack.push_hop({.switch_id = 1});
  stack.push_hop({.switch_id = 2});
  stack.push_hop({.switch_id = 3});
  const auto value = stack.encode_value(20);
  EXPECT_EQ(IntStack::decode_switch_ids(*value, 2).size(), 2u);
  EXPECT_EQ(IntStack::decode_switch_ids(*value, 5).size(), 5u);  // padding kept
}

TEST(IntStack, FiveHopFatTreeFitsPaperValueWidth) {
  // Fig. 4: 5 hops × 32-bit ids = 160 bits = the paper's 20 B value.
  IntStack stack;
  for (std::uint32_t h = 1; h <= 5; ++h) stack.push_hop({.switch_id = h});
  const auto value = stack.encode_value(20);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(IntStack::decode_switch_ids(*value).size(), 5u);
}

TEST(IntStack, EmptyStackEncodesToAllZeros) {
  IntStack stack;
  const auto value = stack.encode_value(8);
  ASSERT_TRUE(value.has_value());
  for (const auto b : *value) EXPECT_EQ(static_cast<std::uint8_t>(b), 0);
  EXPECT_TRUE(IntStack::decode_switch_ids(*value).empty());
}

}  // namespace
}  // namespace dart::telemetry
