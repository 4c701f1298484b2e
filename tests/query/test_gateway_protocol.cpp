// Wire-format tests for the gateway v1 frames (core/query_protocol.hpp):
// subscribe request / subscribe ack / standing notification round-trips,
// magic dispatch against the other UDP/4800 families, and malformed-frame
// rejection.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/query_protocol.hpp"

namespace dart::core {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

TEST(GatewayProtocol, SubscribeRequestRoundTripsAllKinds) {
  SubscribeRequest req;
  req.op = SubscribeOp::kSubscribe;
  req.request_id = 0x0123456789ABCDEFull;
  req.epoch = 0xA1B2C3D4u;
  req.kind = StandingKind::kCounterThreshold;
  req.threshold = 5000;
  req.key = bytes_of({1, 2, 3, 4, 5});

  const auto wire = encode_subscribe_request(req);
  ASSERT_EQ(frame_kind(wire), FrameKind::kSubscribeRequest);
  EXPECT_NE(frame_kind(wire), FrameKind::kSubscribeAck);
  EXPECT_NE(frame_kind(wire), FrameKind::kNotification);
  EXPECT_NE(frame_kind(wire), FrameKind::kPrimitiveRequest);
  EXPECT_NE(frame_kind(wire), FrameKind::kSketchRequest);

  const auto back = parse_subscribe_request(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->request_id, req.request_id);
  EXPECT_EQ(back->epoch, req.epoch);
  EXPECT_EQ(back->kind, req.kind);
  EXPECT_EQ(back->threshold, req.threshold);
  EXPECT_EQ(back->key, req.key);

  SubscribeRequest topk;
  topk.kind = StandingKind::kTopKDelta;
  topk.request_id = 7;
  topk.collector = 3;
  topk.k = 16;
  const auto topk_back = parse_subscribe_request(encode_subscribe_request(topk));
  ASSERT_TRUE(topk_back.has_value());
  EXPECT_EQ(topk_back->kind, StandingKind::kTopKDelta);
  EXPECT_EQ(topk_back->collector, 3u);
  EXPECT_EQ(topk_back->k, 16u);
  EXPECT_TRUE(topk_back->key.empty());

  SubscribeRequest unsub;
  unsub.op = SubscribeOp::kUnsubscribe;
  unsub.request_id = 9;
  unsub.subscription_id = 0xDEADBEEFull;
  const auto unsub_back = parse_subscribe_request(encode_subscribe_request(unsub));
  ASSERT_TRUE(unsub_back.has_value());
  EXPECT_EQ(unsub_back->op, SubscribeOp::kUnsubscribe);
  EXPECT_EQ(unsub_back->subscription_id, 0xDEADBEEFull);
}

TEST(GatewayProtocol, SubscribeAckRoundTripsIncludingRejection) {
  SubscribeAck ack;
  ack.op = SubscribeOp::kSubscribe;
  ack.request_id = 42;
  ack.epoch = 17;
  ack.subscription_id = 1001;
  const auto wire = encode_subscribe_ack(ack);
  ASSERT_EQ(frame_kind(wire), FrameKind::kSubscribeAck);
  EXPECT_NE(frame_kind(wire), FrameKind::kSubscribeRequest);
  const auto back = parse_subscribe_ack(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->request_id, 42u);
  EXPECT_EQ(back->epoch, 17u);
  EXPECT_EQ(back->subscription_id, 1001u);
  EXPECT_FALSE(back->rejected());

  SubscribeAck rejected;
  rejected.request_id = 43;
  rejected.flags = kResponseSubscribeRejected;
  rejected.subscription_id = 0;
  const auto rej_back = parse_subscribe_ack(encode_subscribe_ack(rejected));
  ASSERT_TRUE(rej_back.has_value());
  EXPECT_TRUE(rej_back->rejected());
  EXPECT_EQ(rej_back->subscription_id, 0u);
}

TEST(GatewayProtocol, NotificationRoundTrips) {
  StandingNotification note;
  note.kind = StandingKind::kKeyChange;
  note.subscription_id = 555;
  note.seq = 3;
  note.gateway_epoch = 0x1122334455667788ull;
  note.flags = kResponseDegraded;
  note.value = 1;
  note.key = bytes_of({9, 8, 7});
  note.aux = bytes_of({0x10, 0x20, 0x30, 0x40});

  const auto wire = encode_notification(note);
  ASSERT_EQ(frame_kind(wire), FrameKind::kNotification);
  EXPECT_NE(frame_kind(wire), FrameKind::kSubscribeAck);
  const auto back = parse_notification(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, note.kind);
  EXPECT_EQ(back->subscription_id, 555u);
  EXPECT_EQ(back->seq, 3u);
  EXPECT_EQ(back->gateway_epoch, note.gateway_epoch);
  EXPECT_EQ(back->flags, kResponseDegraded);
  EXPECT_EQ(back->value, 1u);
  EXPECT_EQ(back->key, note.key);
  EXPECT_EQ(back->aux, note.aux);
}

TEST(GatewayProtocol, SharedResponseHeaderPrefixHoldsForGatewayFrames) {
  // The gateway re-stamps ids/epochs on raw bytes: every request family
  // carries the id at [4, 12) and the epoch at [12, 16), and acks add
  // flags at [16] / stale at [17, 19). Pin that layout for the subscribe
  // family too — gateway.cpp depends on it.
  SubscribeRequest req;
  req.request_id = 0x1111222233334444ull;
  req.epoch = 0xAABBCCDDu;
  req.key = bytes_of({1});
  const auto wire = encode_subscribe_request(req);
  ASSERT_GE(wire.size(), 16u);
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id = (id << 8) | static_cast<std::uint8_t>(wire[4 + i]);
  }
  EXPECT_EQ(id, req.request_id);
  std::uint32_t epoch = 0;
  for (int i = 0; i < 4; ++i) {
    epoch = (epoch << 8) | static_cast<std::uint8_t>(wire[12 + i]);
  }
  EXPECT_EQ(epoch, req.epoch);

  SubscribeAck ack;
  ack.request_id = 0x5555666677778888ull;
  ack.epoch = 0x11223344u;
  ack.flags = kResponseSubscribeRejected;
  ack.stale_epochs = 0x0102;
  const auto awire = encode_subscribe_ack(ack);
  ASSERT_GE(awire.size(), 19u);
  EXPECT_EQ(static_cast<std::uint8_t>(awire[16]), kResponseSubscribeRejected);
  EXPECT_EQ((static_cast<std::uint16_t>(awire[17]) << 8) |
                static_cast<std::uint16_t>(awire[18]),
            0x0102);
}

TEST(GatewayProtocol, MalformedFramesAreRejected) {
  SubscribeRequest req;
  req.request_id = 1;
  req.key = bytes_of({1, 2});
  auto wire = encode_subscribe_request(req);

  // Truncations at every length short of full.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(parse_subscribe_request({wire.data(), len}).has_value())
        << "accepted truncation to " << len;
  }
  // Bad version.
  auto bad_ver = wire;
  bad_ver[2] = std::byte{0x7F};
  EXPECT_FALSE(parse_subscribe_request(bad_ver).has_value());
  // Bad op.
  auto bad_op = wire;
  bad_op[3] = std::byte{9};
  EXPECT_FALSE(parse_subscribe_request(bad_op).has_value());
  // Wrong magic is not even dispatched.
  auto bad_magic = wire;
  bad_magic[0] = std::byte{0x00};
  EXPECT_NE(frame_kind(bad_magic), FrameKind::kSubscribeRequest);
  EXPECT_FALSE(parse_subscribe_request(bad_magic).has_value());

  StandingNotification note;
  note.subscription_id = 1;
  note.key = bytes_of({1});
  auto nwire = encode_notification(note);
  for (std::size_t len = 0; len < nwire.size(); ++len) {
    EXPECT_FALSE(parse_notification({nwire.data(), len}).has_value())
        << "accepted truncation to " << len;
  }
  // Key length field pointing past the end.
  SubscribeAck ack;
  auto awire = encode_subscribe_ack(ack);
  for (std::size_t len = 0; len < awire.size(); ++len) {
    EXPECT_FALSE(parse_subscribe_ack({awire.data(), len}).has_value());
  }
}

}  // namespace
}  // namespace dart::core
