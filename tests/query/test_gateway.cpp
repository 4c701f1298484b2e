// End-to-end tests for the production query plane (src/query/gateway.hpp):
// in-process sessions and wire clients multiplexed over the collector pool,
// read caching bounded by the epoch machinery, request coalescing, upstream
// timeout synthesis, standing-query push notifications, and the SLO metric
// surface. The harness is the same netsim management-plane shape the
// operator/service tests use: one simulator, explicit ARP, UDP/4800 frames.
#include "query/gateway.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/primitives.hpp"
#include "core/query_service.hpp"
#include "net/netsim.hpp"
#include "obs/metric.hpp"

namespace dart::query {
namespace {

using core::kResponseDegraded;
using core::kResponseGatewayTimeout;

std::vector<std::byte> key_of(std::uint64_t k) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &k, 8);
  return out;
}

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

// Gateway in front of a 2-collector KV cluster with primitives enabled,
// plus a wire-side OperatorClient whose "services" are the virtual IPs.
class GatewayFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kCollectors = 2;

  void SetUp() override {
    cfg_.n_slots = 1 << 8;
    cfg_.n_addresses = 2;
    cfg_.value_bytes = 8;
    cfg_.master_seed = 0x6A7E;
    cluster_ = std::make_unique<core::CollectorCluster>(cfg_, kCollectors);
    const auto prim = core::default_primitives(cfg_.master_seed);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      ASSERT_TRUE(cluster_->collector(c).enable_primitives(prim).ok());
    }

    auto resolver = [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
      for (const auto& [addr, node] : arp_) {
        if (addr == ip) return node;
      }
      return std::nullopt;
    };

    QueryGatewayConfig gcfg;
    gcfg.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      const auto svc_ip = net::Ipv4Addr::from_octets(10, 0, 50,
                                                     static_cast<std::uint8_t>(c));
      gcfg.virtual_ips.push_back(
          net::Ipv4Addr::from_octets(10, 9, 2, static_cast<std::uint8_t>(c)));
      gcfg.service_ips.push_back(svc_ip);
      services_.push_back(std::make_unique<core::QueryServiceNode>(
          cluster_->collector(c), svc_ip, resolver));
      services_.back()->set_deployment(&cluster_->crafter(), kCollectors);
    }
    gateway_ = std::make_unique<QueryGateway>(gcfg, cluster_->crafter(),
                                              resolver);

    operator_ip_ = net::Ipv4Addr::from_octets(10, 9, 9, 9);
    wire_op_ = std::make_unique<core::OperatorClient>(
        cluster_->crafter(), operator_ip_, gcfg.virtual_ips, resolver);

    const auto gw_node = sim_.add_node(*gateway_);
    arp_.emplace_back(gcfg.gateway_ip, gw_node);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      const auto svc_node = sim_.add_node(*services_[c]);
      arp_.emplace_back(gcfg.service_ips[c], svc_node);
      arp_.emplace_back(gcfg.virtual_ips[c], gw_node);
      sim_.connect(gw_node, svc_node, /*latency_ns=*/1000);
    }
    const auto op_node = sim_.add_node(*wire_op_);
    arp_.emplace_back(operator_ip_, op_node);
    sim_.connect(op_node, gw_node, /*latency_ns=*/1000);
  }

  core::DartConfig cfg_;
  std::unique_ptr<core::CollectorCluster> cluster_;
  net::Simulator sim_{1};
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp_;
  std::vector<std::unique_ptr<core::QueryServiceNode>> services_;
  std::unique_ptr<QueryGateway> gateway_;
  net::Ipv4Addr operator_ip_{};
  std::unique_ptr<core::OperatorClient> wire_op_;
};

TEST_F(GatewayFixture, SessionKvQueriesMatchClusterOracle) {
  auto& session = gateway_->open_session();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> issued;  // id, tag
  for (std::uint64_t tag = 0; tag < 16; ++tag) {
    cluster_->write(key_of(tag), value_of(tag * 101));
    const auto id = session.query(key_of(tag));
    ASSERT_NE(id, 0u);
    issued.emplace_back(id, tag);
  }
  EXPECT_EQ(session.pending(), 16u);
  sim_.run();
  EXPECT_EQ(session.pending(), 0u);
  EXPECT_EQ(session.answered(), 16u);
  for (const auto& [id, tag] : issued) {
    const auto resp = session.take_response(id);
    ASSERT_TRUE(resp.has_value()) << "no answer for tag " << tag;
    EXPECT_EQ(resp->outcome, core::QueryOutcome::kFound);
    EXPECT_EQ(resp->value, value_of(tag * 101));
    EXPECT_EQ(resp->flags, 0u);
    EXPECT_EQ(resp->stale_epochs, 0u);
  }
  EXPECT_EQ(session.degraded(), 0u);
}

TEST_F(GatewayFixture, SessionPrimitiveAndSketchFamiliesForward) {
  auto& session = gateway_->open_session();
  const auto key = key_of(7);
  const auto owner = cluster_->owner_of(key);
  (void)cluster_->collector(owner).counters().fetch_add(key, 40);
  (void)cluster_->collector(owner).counters().fetch_add(key, 2);

  const auto counter_id = session.read_counter(key);
  const auto drain_id = session.drain_ring(0);
  const auto postcard_id = session.read_postcard_group(key);
  const auto sketch_id = session.sketch_estimate(key);  // KV backend: unavailable
  ASSERT_NE(counter_id, 0u);
  ASSERT_NE(drain_id, 0u);
  ASSERT_NE(postcard_id, 0u);
  ASSERT_NE(sketch_id, 0u);
  sim_.run();

  const auto counter = session.take_primitive_response(counter_id);
  ASSERT_TRUE(counter.has_value());
  EXPECT_EQ(counter->op, core::PrimitiveOp::kReadCounter);
  EXPECT_EQ(counter->counter_value, 42u);

  const auto drained = session.take_primitive_response(drain_id);
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->op, core::PrimitiveOp::kDrainRing);
  EXPECT_TRUE(drained->entries.empty());

  const auto postcard = session.take_primitive_response(postcard_id);
  ASSERT_TRUE(postcard.has_value());
  EXPECT_EQ(postcard->op, core::PrimitiveOp::kReadPostcardGroup);

  const auto sketch = session.take_sketch_response(sketch_id);
  ASSERT_TRUE(sketch.has_value());
  EXPECT_TRUE(sketch->unavailable());  // KV-backed collectors have no sketch
  EXPECT_EQ(session.pending(), 0u);
}

TEST_F(GatewayFixture, RepeatReadIsServedFromCacheWithinTheEpoch) {
  auto& session = gateway_->open_session();
  const auto key = key_of(3);
  cluster_->write(key, value_of(33));

  const auto first = session.query(key);
  sim_.run();
  ASSERT_TRUE(session.take_response(first).has_value());
  const auto upstream_after_first = gateway_->upstream_sent();

  const auto second = session.query(key);
  // A cache hit is answered synchronously — no simulator events needed.
  const auto resp = session.take_response(second);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->value, value_of(33));
  EXPECT_EQ(resp->flags, 0u);  // same-epoch hit: age 0, fully fresh
  EXPECT_EQ(resp->stale_epochs, 0u);
  EXPECT_EQ(gateway_->upstream_sent(), upstream_after_first);
  EXPECT_GE(gateway_->cache().hits(), 1u);

  // Epoch tick invalidates (default max age 0): next read goes upstream.
  gateway_->on_epoch(1);
  const auto third = session.query(key);
  EXPECT_FALSE(session.take_response(third).has_value());
  sim_.run();
  EXPECT_TRUE(session.take_response(third).has_value());
  EXPECT_EQ(gateway_->upstream_sent(), upstream_after_first + 1);
}

TEST_F(GatewayFixture, ConcurrentIdenticalReadsCoalesceOntoOneUpstream) {
  auto& a = gateway_->open_session();
  auto& b = gateway_->open_session();
  auto& c = gateway_->open_session();
  const auto key = key_of(9);
  cluster_->write(key, value_of(99));

  const auto ia = a.query(key);
  const auto ib = b.query(key);
  const auto ic = c.query(key);
  EXPECT_EQ(gateway_->inflight(), 1u);
  sim_.run();

  EXPECT_EQ(gateway_->coalesced_total(), 2u);
  EXPECT_EQ(gateway_->upstream_sent(), 1u);
  const auto ra = a.take_response(ia);
  const auto rb = b.take_response(ib);
  const auto rc = c.take_response(ic);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(ra->value, value_of(99));
  EXPECT_EQ(rb->value, value_of(99));
  EXPECT_EQ(rc->value, value_of(99));
  EXPECT_EQ(rb->request_id, ib);  // each waiter got its own id back
  std::uint64_t served = 0;
  for (const auto& svc : services_) served += svc->requests_served();
  EXPECT_EQ(served, 1u);
}

TEST_F(GatewayFixture, OfflineServiceSynthesizesFlaggedTimeout) {
  auto& session = gateway_->open_session();
  const auto key = key_of(4);
  cluster_->write(key, value_of(44));
  const auto owner = cluster_->owner_of(key);
  services_[owner]->set_online(false);

  const auto id = session.query(key);
  sim_.run();  // sends + retries + deadline events all drain

  EXPECT_EQ(gateway_->upstream_retries(), gateway_->config().max_retries);
  EXPECT_EQ(gateway_->upstream_timeouts(), 1u);
  EXPECT_EQ(gateway_->inflight(), 0u);
  EXPECT_EQ(session.pending(), 0u);
  const auto resp = session.take_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_NE(resp->flags & kResponseDegraded, 0u);
  EXPECT_NE(resp->flags & kResponseGatewayTimeout, 0u);
  EXPECT_EQ(session.degraded(), 1u);

  // The synthesized answer must not poison the cache.
  services_[owner]->set_online(true);
  const auto again = session.query(key);
  sim_.run();
  const auto live = session.take_response(again);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->flags, 0u);
  EXPECT_EQ(live->value, value_of(44));
}

// An upstream answer retires its read only once it parses. UDP/4800 frames
// carry no UDP checksum, so a damaged answer can still match a request id;
// here a bare 19-byte KV answer header for upstream id 1 (flags 0, no body)
// reaches the gateway before the genuine answer. It must be neither cached
// nor handed to the waiting session: the read stays in flight and the
// genuine answer completes it.
TEST_F(GatewayFixture, UpstreamAnswerThatDoesNotParseStaysInFlight) {
  obs::MetricRegistry registry;
  gateway_->bind_metrics(registry, "dart");
  auto& session = gateway_->open_session();
  const auto key = key_of(5);
  cluster_->write(key, value_of(55));
  const auto id = session.query(key);
  ASSERT_EQ(gateway_->inflight(), 1u);

  const std::vector<std::byte> header = {
      std::byte{0x44}, std::byte{0x52}, std::byte{2}, std::byte{0},  // DR v2
      std::byte{0}, std::byte{0}, std::byte{0}, std::byte{0},
      std::byte{0}, std::byte{0}, std::byte{0}, std::byte{1},  // id 1
      std::byte{0}, std::byte{0}, std::byte{0}, std::byte{0},  // epoch
      std::byte{0}, std::byte{0}, std::byte{0}};  // flags, stale epochs
  net::UdpFrameSpec spec;
  spec.src_ip = gateway_->config().service_ips[cluster_->owner_of(key)];
  spec.dst_ip = gateway_->config().gateway_ip;
  spec.src_port = core::kDartQueryUdpPort;
  spec.dst_port = core::kDartQueryUdpPort;
  gateway_->receive(net::Packet(net::build_udp_frame(spec, header)), 0);

  EXPECT_EQ(gateway_->inflight(), 1u);
  EXPECT_EQ(gateway_->cache().inserts(), 0u);
  EXPECT_EQ(registry.snapshot().value_of("dart_gateway_malformed_total"), 1.0);
  EXPECT_EQ(session.pending(), 1u);
  EXPECT_FALSE(session.take_response(id).has_value());

  sim_.run();
  EXPECT_EQ(gateway_->upstream_unexpected(), 0u);
  EXPECT_EQ(session.pending(), 0u);
  const auto resp = session.take_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->value, value_of(55));

  // Later reads of the key, by the session and by a wire client, are
  // answered with the genuine value.
  const auto again = session.query(key);
  const auto wire_id = wire_op_->query(key);
  sim_.run();
  EXPECT_EQ(session.pending(), 0u);
  const auto second = session.take_response(again);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->value, value_of(55));
  const auto wire = wire_op_->take_response(wire_id);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->value, value_of(55));
}

TEST_F(GatewayFixture, WireClientRidesVirtualIpsTransparently) {
  const auto key = key_of(12);
  cluster_->write(key, value_of(120));
  const auto kv_id = wire_op_->query(key);
  const auto drain_id = wire_op_->drain_ring(1);  // collector-addressed op
  const auto counter_id = wire_op_->read_counter(key);
  ASSERT_NE(kv_id, 0u);
  ASSERT_NE(drain_id, 0u);
  ASSERT_NE(counter_id, 0u);
  sim_.run();

  EXPECT_EQ(wire_op_->pending(), 0u);
  EXPECT_EQ(wire_op_->stray_responses(), 0u);
  EXPECT_EQ(wire_op_->unexpected_responses(), 0u);
  const auto kv = wire_op_->take_response(kv_id);
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->outcome, core::QueryOutcome::kFound);
  EXPECT_EQ(kv->value, value_of(120));
  const auto drained = wire_op_->take_primitive_response(drain_id);
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->op, core::PrimitiveOp::kDrainRing);
  const auto counter = wire_op_->take_primitive_response(counter_id);
  ASSERT_TRUE(counter.has_value());
  EXPECT_EQ(counter->op, core::PrimitiveOp::kReadCounter);
  EXPECT_EQ(gateway_->requests_total(), 3u);
}

TEST_F(GatewayFixture, WireReadsShareTheGatewayCache) {
  const auto key = key_of(21);
  cluster_->write(key, value_of(210));
  auto& session = gateway_->open_session();
  const auto warm = session.query(key);
  sim_.run();
  ASSERT_TRUE(session.take_response(warm).has_value());

  const auto upstream_before = gateway_->upstream_sent();
  const auto id = wire_op_->query(key);
  sim_.run();
  const auto resp = wire_op_->take_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->value, value_of(210));
  EXPECT_EQ(gateway_->upstream_sent(), upstream_before);  // served from cache
}

TEST_F(GatewayFixture, StandingKeyChangePushesWithoutPolling) {
  auto& session = gateway_->open_session();
  const auto key = key_of(60);
  const auto sub_req = session.subscribe_key_change(key);
  const auto ack = session.take_subscribe_ack(sub_req);
  ASSERT_TRUE(ack.has_value());
  ASSERT_FALSE(ack->rejected());
  EXPECT_NE(ack->subscription_id, 0u);
  EXPECT_EQ(gateway_->n_standing(), 1u);

  // First sighting fires (absent → found transition).
  cluster_->write(key, value_of(1));
  gateway_->on_epoch(1);
  sim_.run();
  auto notes = session.take_notifications();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].kind, core::StandingKind::kKeyChange);
  EXPECT_EQ(notes[0].subscription_id, ack->subscription_id);
  EXPECT_EQ(notes[0].seq, 1u);
  EXPECT_EQ(notes[0].value, 1u);  // found
  EXPECT_EQ(notes[0].key, key);
  EXPECT_EQ(notes[0].aux, value_of(1));

  // Unchanged value: the predicate stays quiet.
  gateway_->on_epoch(2);
  sim_.run();
  EXPECT_TRUE(session.take_notifications().empty());

  // Value change fires again with the next seq.
  cluster_->write(key, value_of(2));
  gateway_->on_epoch(3);
  sim_.run();
  notes = session.take_notifications();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].seq, 2u);
  EXPECT_EQ(notes[0].aux, value_of(2));
  EXPECT_EQ(session.notifications_received(), 2u);

  // Unsubscribe silences it.
  const auto unsub = session.unsubscribe(ack->subscription_id);
  const auto unsub_ack = session.take_subscribe_ack(unsub);
  ASSERT_TRUE(unsub_ack.has_value());
  EXPECT_FALSE(unsub_ack->rejected());
  EXPECT_EQ(unsub_ack->epoch, gateway_->gateway_epoch());  // echoed, like reads
  EXPECT_EQ(gateway_->n_standing(), 0u);
  cluster_->write(key, value_of(3));
  gateway_->on_epoch(4);
  sim_.run();
  EXPECT_TRUE(session.take_notifications().empty());
}

TEST_F(GatewayFixture, StandingCounterThresholdFiresOnUpwardCrossing) {
  auto& session = gateway_->open_session();
  const auto key = key_of(61);
  const auto owner = cluster_->owner_of(key);
  const auto sub_req = session.subscribe_counter_threshold(key, 100);
  const auto ack = session.take_subscribe_ack(sub_req);
  ASSERT_TRUE(ack.has_value());
  ASSERT_FALSE(ack->rejected());

  (void)cluster_->collector(owner).counters().fetch_add(key, 50);
  gateway_->on_epoch(1);
  sim_.run();
  EXPECT_TRUE(session.take_notifications().empty());  // below threshold

  (void)cluster_->collector(owner).counters().fetch_add(key, 60);  // total 110
  gateway_->on_epoch(2);
  sim_.run();
  auto notes = session.take_notifications();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].kind, core::StandingKind::kCounterThreshold);
  EXPECT_EQ(notes[0].value, 110u);

  // Still above: no re-fire until it re-arms below the threshold.
  gateway_->on_epoch(3);
  sim_.run();
  EXPECT_TRUE(session.take_notifications().empty());
}

TEST_F(GatewayFixture, WireSubscriberGetsPushNotifications) {
  // The acceptance e2e: a wire operator registers once, never polls, and a
  // notification frame arrives after the store changes.
  const auto key = key_of(62);
  const auto gw_ip = gateway_->config().gateway_ip;
  const auto sub_req = wire_op_->subscribe_key_change(gw_ip, key);
  ASSERT_NE(sub_req, 0u);
  sim_.run();
  const auto ack = wire_op_->take_subscribe_ack(sub_req);
  ASSERT_TRUE(ack.has_value());
  ASSERT_FALSE(ack->rejected());
  EXPECT_EQ(wire_op_->pending(), 0u);  // the ack retired the request

  cluster_->write(key, value_of(7));
  gateway_->on_epoch(1);
  sim_.run();  // no operator sends here — the notification is pushed

  EXPECT_EQ(wire_op_->notifications_received(), 1u);
  const auto notes = wire_op_->take_notifications();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].subscription_id, ack->subscription_id);
  EXPECT_EQ(notes[0].key, key);
  EXPECT_EQ(notes[0].aux, value_of(7));
  EXPECT_EQ(gateway_->notifications_sent(), 1u);
}

TEST_F(GatewayFixture, BadSubscribePredicatesAreRejected) {
  auto& session = gateway_->open_session();
  // Keyed kind with empty key.
  const auto empty_key = session.subscribe_key_change({});
  const auto a1 = session.take_subscribe_ack(empty_key);
  ASSERT_TRUE(a1.has_value());
  EXPECT_TRUE(a1->rejected());
  EXPECT_EQ(a1->subscription_id, 0u);
  // Top-k with k == 0.
  const auto zero_k = session.subscribe_topk_delta(0, 0);
  const auto a2 = session.take_subscribe_ack(zero_k);
  ASSERT_TRUE(a2.has_value());
  EXPECT_TRUE(a2->rejected());
  // Top-k with out-of-range collector.
  const auto bad_col = session.subscribe_topk_delta(99, 4);
  const auto a3 = session.take_subscribe_ack(bad_col);
  ASSERT_TRUE(a3.has_value());
  EXPECT_TRUE(a3->rejected());
  // Unknown unsubscribe.
  const auto unsub = session.unsubscribe(424242);
  const auto a4 = session.take_subscribe_ack(unsub);
  ASSERT_TRUE(a4.has_value());
  EXPECT_TRUE(a4->rejected());
  EXPECT_EQ(gateway_->subscribes_rejected(), 4u);
  EXPECT_EQ(gateway_->n_standing(), 0u);
}

TEST_F(GatewayFixture, FailoverRetargetReroutesKeyedReads) {
  const auto key = key_of(30);
  cluster_->write(key, value_of(300));
  const auto owner = cluster_->owner_of(key);
  const auto backup = (owner + 1) % kCollectors;

  // The backup adopts the dead owner's keys at the same slot indices (the
  // address hash is collector-independent), as the failover plane does.
  cluster_->collector(backup).store().write(key, value_of(300));
  services_[owner]->set_online(false);
  services_[backup]->begin_takeover(owner, /*stale_epochs=*/1);
  gateway_->retarget(owner, backup);

  auto& session = gateway_->open_session();
  const auto id = session.query(key);
  sim_.run();
  const auto resp = session.take_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->value, value_of(300));
  EXPECT_NE(resp->flags & kResponseDegraded, 0u);  // takeover is marked
  EXPECT_GE(resp->stale_epochs, 1u);
  EXPECT_EQ(gateway_->upstream_timeouts(), 0u);  // rerouted, not timed out
}

TEST_F(GatewayFixture, MetricsExposeGatewayCountersAndLatency) {
  obs::MetricRegistry registry;
  gateway_->bind_metrics(registry, "dart");

  auto& session = gateway_->open_session();
  const auto key = key_of(40);
  cluster_->write(key, value_of(400));
  const auto a = session.query(key);
  sim_.run();
  ASSERT_TRUE(session.take_response(a).has_value());
  const auto b = session.query(key);  // cache hit
  ASSERT_TRUE(session.take_response(b).has_value());

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("dart_gateway_requests_total"), 2.0);
  EXPECT_EQ(snap.value_of("dart_gateway_cache_hits_total"), 1.0);
  EXPECT_EQ(snap.value_of("dart_gateway_upstream_sent_total"), 1.0);
  EXPECT_EQ(snap.value_of("dart_gateway_sessions"), 1.0);
  EXPECT_EQ(snap.value_of("dart_gateway_inflight"), 0.0);
  EXPECT_GE(snap.value_of("dart_gateway_inflight_highwater"), 1.0);
  ASSERT_NE(snap.find("dart_gateway_latency_kv_ns"), nullptr);

  const auto hist = gateway_->latency_kv();
  EXPECT_EQ(hist.total, 2u);  // one live answer + one zero-latency cache hit
  EXPECT_GE(hist.quantile(0.99), 0.0);
}

// --- sketch-backed collector: estimate, top-k, and the top-k-delta standing
// query -----------------------------------------------------------------------

class SketchGatewayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.n_slots = 1 << 8;
    cfg_.n_addresses = 2;
    cfg_.value_bytes = 8;
    cfg_.master_seed = 0x6A7F;
    crafter_ = std::make_unique<core::ReportCrafter>(cfg_);

    core::StoreBackendConfig choice;
    choice.kind = core::StoreBackendKind::kSketch;
    choice.sketch.rows = 2;
    choice.sketch.cols = 128;
    choice.sketch.seed = 0x5EED;
    choice.sketch.topk_capacity = 8;
    core::CollectorEndpoint ep;
    ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 0);
    collector_ = std::make_unique<core::Collector>(cfg_, 0, ep, choice);

    auto resolver = [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
      for (const auto& [addr, node] : arp_) {
        if (addr == ip) return node;
      }
      return std::nullopt;
    };
    const auto svc_ip = net::Ipv4Addr::from_octets(10, 0, 50, 0);
    service_ = std::make_unique<core::QueryServiceNode>(*collector_, svc_ip,
                                                        resolver);
    QueryGatewayConfig gcfg;
    gcfg.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
    gcfg.virtual_ips = {net::Ipv4Addr::from_octets(10, 9, 2, 0)};
    gcfg.service_ips = {svc_ip};
    gateway_ = std::make_unique<QueryGateway>(gcfg, *crafter_, resolver);

    const auto gw_node = sim_.add_node(*gateway_);
    const auto svc_node = sim_.add_node(*service_);
    arp_.emplace_back(gcfg.gateway_ip, gw_node);
    arp_.emplace_back(gcfg.virtual_ips[0], gw_node);
    arp_.emplace_back(svc_ip, svc_node);
    sim_.connect(gw_node, svc_node, 1000);
  }

  core::DartConfig cfg_;
  std::unique_ptr<core::ReportCrafter> crafter_;
  std::unique_ptr<core::Collector> collector_;
  net::Simulator sim_{1};
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp_;
  std::unique_ptr<core::QueryServiceNode> service_;
  std::unique_ptr<QueryGateway> gateway_;
};

TEST_F(SketchGatewayFixture, EstimateAndTopKDeltaStandingQuery) {
  auto& session = gateway_->open_session();
  const auto hot = key_of(1);
  collector_->sketch().add(hot, 10);

  // The estimate both answers and seeds the heavy-hitter tracker.
  const auto est_id = session.sketch_estimate(hot);
  sim_.run();
  const auto est = session.take_sketch_response(est_id);
  ASSERT_TRUE(est.has_value());
  EXPECT_FALSE(est->unavailable());
  EXPECT_EQ(est->estimate, 10u);

  const auto sub_req = session.subscribe_topk_delta(0, 4);
  const auto ack = session.take_subscribe_ack(sub_req);
  ASSERT_TRUE(ack.has_value());
  ASSERT_FALSE(ack->rejected());

  gateway_->on_epoch(1);
  sim_.run();
  auto notes = session.take_notifications();
  ASSERT_EQ(notes.size(), 1u);  // `hot` entered the (previously empty) top-k
  EXPECT_EQ(notes[0].kind, core::StandingKind::kTopKDelta);
  EXPECT_EQ(notes[0].key, hot);
  EXPECT_EQ(notes[0].value, 10u);

  // No membership change: quiet.
  gateway_->on_epoch(2);
  sim_.run();
  EXPECT_TRUE(session.take_notifications().empty());

  // A new key enters: exactly one delta notification.
  const auto warm = key_of(2);
  collector_->sketch().add(warm, 20);
  const auto est2 = session.sketch_estimate(warm);
  sim_.run();
  ASSERT_TRUE(session.take_sketch_response(est2).has_value());
  gateway_->on_epoch(3);
  sim_.run();
  notes = session.take_notifications();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].key, warm);
  EXPECT_EQ(notes[0].value, 20u);

  // Direct top-k read through the gateway agrees with the backend.
  const auto topk_id = session.sketch_topk(0, 4);
  sim_.run();
  const auto topk = session.take_sketch_response(topk_id);
  ASSERT_TRUE(topk.has_value());
  ASSERT_EQ(topk->hitters.size(), 2u);
  EXPECT_EQ(topk->hitters[0].key, warm);
  EXPECT_EQ(topk->hitters[0].count, 20u);
}

}  // namespace
}  // namespace dart::query
