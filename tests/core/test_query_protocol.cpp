// Tests for the §3.2 operator query protocol: wire round trips and the full
// operator ↔ collector exchange over the fabric simulator.
#include "core/query_protocol.hpp"
#include "core/query_service.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/cluster.hpp"
#include "core/oracle.hpp"
#include "net/headers.hpp"

namespace dart::core {
namespace {

std::vector<std::byte> key_of(const std::string& s) {
  const auto b = std::as_bytes(std::span{s.data(), s.size()});
  return {b.begin(), b.end()};
}

TEST(QueryProtocol, RequestRoundTrip) {
  QueryRequest req;
  req.request_id = 0xDEADBEEF01ull;
  req.policy = ReturnPolicy::kConsensusTwo;
  req.key = key_of("flow-42");

  const auto wire = encode_query_request(req);
  const auto parsed = parse_query_request(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->request_id, req.request_id);
  EXPECT_EQ(parsed->policy, ReturnPolicy::kConsensusTwo);
  EXPECT_EQ(parsed->key, req.key);
}

TEST(QueryProtocol, ResponseRoundTrip) {
  QueryResponse resp;
  resp.request_id = 77;
  resp.outcome = QueryOutcome::kFound;
  resp.checksum_matches = 2;
  resp.distinct_values = 1;
  resp.value = key_of("some-value-bytes");

  const auto wire = encode_query_response(resp);
  const auto parsed = parse_query_response(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->request_id, 77u);
  EXPECT_EQ(parsed->outcome, QueryOutcome::kFound);
  EXPECT_EQ(parsed->checksum_matches, 2);
  EXPECT_EQ(parsed->value, resp.value);
}

TEST(QueryProtocol, EmptyResponseRoundTrip) {
  QueryResponse resp;
  resp.request_id = 5;
  resp.outcome = QueryOutcome::kEmpty;
  const auto parsed = parse_query_response(encode_query_response(resp));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->outcome, QueryOutcome::kEmpty);
  EXPECT_TRUE(parsed->value.empty());
}

TEST(QueryProtocol, MalformedRejected) {
  EXPECT_FALSE(parse_query_request({}).has_value());
  EXPECT_FALSE(parse_query_response({}).has_value());

  QueryRequest req;
  req.request_id = 1;
  req.key = key_of("k");
  auto wire = encode_query_request(req);
  wire[0] = std::byte{0xFF};  // wrong magic
  EXPECT_FALSE(parse_query_request(wire).has_value());

  wire = encode_query_request(req);
  wire[3] = std::byte{0x09};  // invalid policy
  EXPECT_FALSE(parse_query_request(wire).has_value());

  wire = encode_query_request(req);
  wire.resize(wire.size() - 1);  // truncated key
  EXPECT_FALSE(parse_query_request(wire).has_value());
}

TEST(QueryProtocol, EmptyKeyRejected) {
  QueryRequest req;
  req.request_id = 1;
  const auto wire = encode_query_request(req);  // key empty
  EXPECT_FALSE(parse_query_request(wire).has_value());
}

// v2 regression (PROTOCOLS.md "Epoch echo"): both directions carry the
// operator's epoch, and the response's degradation fields survive the wire.
TEST(QueryProtocol, EpochAndDegradationRoundTrip) {
  QueryRequest req;
  req.request_id = 31;
  req.epoch = 0xA1B2C3D4;
  req.key = key_of("epoch-key");
  const auto preq = parse_query_request(encode_query_request(req));
  ASSERT_TRUE(preq.has_value());
  EXPECT_EQ(preq->epoch, 0xA1B2C3D4u);

  QueryResponse resp;
  resp.request_id = 31;
  resp.epoch = 0xA1B2C3D4;
  resp.flags = kResponseDegraded;
  resp.stale_epochs = 3;
  resp.outcome = QueryOutcome::kEmpty;
  const auto presp = parse_query_response(encode_query_response(resp));
  ASSERT_TRUE(presp.has_value());
  EXPECT_EQ(presp->epoch, 0xA1B2C3D4u);
  EXPECT_TRUE(presp->degraded());
  EXPECT_EQ(presp->stale_epochs, 3u);

  resp.flags = 0;
  EXPECT_FALSE(parse_query_response(encode_query_response(resp))->degraded());
}

TEST(QueryProtocol, MakeResponseClampsCounts) {
  QueryResult result;
  result.outcome = QueryOutcome::kFound;
  result.value = key_of("v");
  result.checksum_matches = 1000;
  result.distinct_values = 500;
  const auto resp = make_response(9, result);
  EXPECT_EQ(resp.checksum_matches, 0xFF);
  EXPECT_EQ(resp.distinct_values, 0xFF);
}

// --- end-to-end over the simulator ------------------------------------------

class QueryServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DartConfig cfg;
    cfg.n_slots = 1 << 12;
    cfg.n_addresses = 2;
    cfg.value_bytes = 8;
    cfg.master_seed = 0x0E;
    cluster_ = std::make_unique<CollectorCluster>(cfg, 2);
    crafter_ = std::make_unique<ReportCrafter>(cfg);

    // Service nodes front the two collectors; the operator joins the same
    // management network (star links for simplicity).
    std::vector<net::Ipv4Addr> service_ips;
    for (std::uint32_t c = 0; c < 2; ++c) {
      const auto ip = net::Ipv4Addr::from_octets(10, 0, 100, static_cast<std::uint8_t>(c));
      service_ips.push_back(ip);
    }
    auto resolver = [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
      for (const auto& [addr, node] : arp_) {
        if (addr == ip) return node;
      }
      return std::nullopt;
    };
    for (std::uint32_t c = 0; c < 2; ++c) {
      services_.push_back(std::make_unique<QueryServiceNode>(
          cluster_->collector(c), service_ips[c], resolver));
    }
    const auto operator_ip = net::Ipv4Addr::from_octets(10, 9, 0, 1);
    operator_ = std::make_unique<OperatorClient>(*crafter_, operator_ip,
                                                 service_ips, resolver);

    const auto op_node = sim_.add_node(*operator_);
    arp_.emplace_back(operator_ip, op_node);
    for (std::uint32_t c = 0; c < 2; ++c) {
      const auto node = sim_.add_node(*services_[c]);
      arp_.emplace_back(service_ips[c], node);
      sim_.connect(op_node, node, /*latency_ns=*/2000);
    }
  }

  std::vector<std::byte> value_of(std::uint64_t v) {
    std::vector<std::byte> out(8);
    std::memcpy(out.data(), &v, 8);
    return out;
  }

  net::Simulator sim_{1};
  std::unique_ptr<CollectorCluster> cluster_;
  std::unique_ptr<ReportCrafter> crafter_;
  std::vector<std::unique_ptr<QueryServiceNode>> services_;
  std::unique_ptr<OperatorClient> operator_;
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp_;
};

TEST_F(QueryServiceFixture, QueryOverTheWireFindsValue) {
  const auto key = key_of("remote-query-key");
  cluster_->write(key, value_of(0xCAFE));

  const auto id = operator_->query(key);
  EXPECT_EQ(operator_->pending(), 1u);
  sim_.run();

  const auto resp = operator_->take_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->outcome, QueryOutcome::kFound);
  std::uint64_t got;
  std::memcpy(&got, resp->value.data(), 8);
  EXPECT_EQ(got, 0xCAFEu);
  EXPECT_EQ(operator_->pending(), 0u);
  // Exactly one service did the work — the key's hash owner.
  EXPECT_EQ(services_[cluster_->owner_of(key)]->requests_served(), 1u);
  EXPECT_EQ(services_[1 - cluster_->owner_of(key)]->requests_served(), 0u);
}

TEST_F(QueryServiceFixture, UnknownKeyYieldsEmptyResponse) {
  const auto key = key_of("never-written");
  const auto id = operator_->query(key);
  sim_.run();
  const auto resp = operator_->take_response(id);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->outcome, QueryOutcome::kEmpty);
}

TEST_F(QueryServiceFixture, ConcurrentQueriesToBothCollectors) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> issued;  // id, truth
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto key = key_of("bulk-" + std::to_string(i));
    cluster_->write(key, value_of(i));
    issued.emplace_back(operator_->query(key), i);
  }
  sim_.run();
  for (const auto& [id, truth] : issued) {
    const auto resp = operator_->take_response(id);
    ASSERT_TRUE(resp.has_value()) << id;
    ASSERT_EQ(resp->outcome, QueryOutcome::kFound);
    std::uint64_t got;
    std::memcpy(&got, resp->value.data(), 8);
    EXPECT_EQ(got, truth);
  }
  EXPECT_GT(services_[0]->requests_served(), 10u);
  EXPECT_GT(services_[1]->requests_served(), 10u);
}

TEST_F(QueryServiceFixture, PerQueryPolicyHonored) {
  // One copy clobbered → plurality finds it, consensus-2 returns empty
  // (the §4 per-query trade-off, now over the wire).
  const auto key = key_of("policy-key");
  auto& store = cluster_->collector(cluster_->owner_of(key)).store();
  store.write(key, value_of(0xAB));
  // Clobber copy 1's checksum.
  const auto idx = store.slot_index(key, 1);
  store.memory()[store.slot_offset(idx)] ^= std::byte{0xFF};

  const auto id_plural = operator_->query(key, ReturnPolicy::kPlurality);
  const auto id_consensus = operator_->query(key, ReturnPolicy::kConsensusTwo);
  sim_.run();
  EXPECT_EQ(operator_->take_response(id_plural)->outcome, QueryOutcome::kFound);
  EXPECT_EQ(operator_->take_response(id_consensus)->outcome,
            QueryOutcome::kEmpty);
}

TEST_F(QueryServiceFixture, TakeResponseIsOneShot) {
  const auto key = key_of("oneshot");
  cluster_->write(key, value_of(1));
  const auto id = operator_->query(key);
  sim_.run();
  EXPECT_TRUE(operator_->take_response(id).has_value());
  EXPECT_FALSE(operator_->take_response(id).has_value());
}

// The live exchange echoes the request's epoch even when responses arrive
// out of order w.r.t. epoch bumps — each answer anchors to the epoch its
// request was stamped with, not the client's current one.
TEST_F(QueryServiceFixture, ResponseEchoesRequestEpoch) {
  const auto key = key_of("epoch-echo");
  cluster_->write(key, value_of(0xE0));

  operator_->set_epoch(7);
  const auto id_old = operator_->query(key);
  operator_->set_epoch(8);
  const auto id_new = operator_->query(key);
  sim_.run();

  const auto old_resp = operator_->take_response(id_old);
  const auto new_resp = operator_->take_response(id_new);
  ASSERT_TRUE(old_resp.has_value());
  ASSERT_TRUE(new_resp.has_value());
  EXPECT_EQ(old_resp->epoch, 7u);
  EXPECT_EQ(new_resp->epoch, 8u);
  // Healthy service, healthy store: no degradation markers.
  EXPECT_FALSE(old_resp->degraded());
  EXPECT_EQ(old_resp->stale_epochs, 0u);
}

// --- query-plane hardening regressions ---------------------------------------

std::vector<std::byte> query_frame(net::Ipv4Addr src, net::Ipv4Addr dst,
                                   std::span<const std::byte> payload,
                                   std::uint16_t dst_port = kDartQueryUdpPort) {
  net::UdpFrameSpec spec;
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.src_port = kDartQueryUdpPort;
  spec.dst_port = dst_port;
  return net::build_udp_frame(spec, payload);
}

// A service must not resolve well-formed requests addressed to another node:
// wrong-dst frames count as not_for_me, never as malformed or served.
TEST_F(QueryServiceFixture, WrongDstIpIsNotForMeNotMalformed) {
  QueryRequest req;
  req.request_id = 1;
  req.key = key_of("misrouted");

  // Well-formed request, but addressed to service 1, delivered to service 0.
  services_[0]->receive(
      net::Packet(query_frame(operator_->ip(), services_[1]->ip(),
                              encode_query_request(req))),
      0);
  EXPECT_EQ(services_[0]->not_for_me(), 1u);
  EXPECT_EQ(services_[0]->malformed_requests(), 0u);
  EXPECT_EQ(services_[0]->requests_served(), 0u);

  // Wrong UDP port is routing noise too.
  services_[0]->receive(
      net::Packet(query_frame(operator_->ip(), services_[0]->ip(),
                              encode_query_request(req), /*dst_port=*/9999)),
      0);
  EXPECT_EQ(services_[0]->not_for_me(), 2u);
  EXPECT_EQ(services_[0]->malformed_requests(), 0u);

  // A bad DQ payload addressed TO US is a protocol error.
  const auto junk = key_of("not-a-query");
  services_[0]->receive(
      net::Packet(query_frame(operator_->ip(), services_[0]->ip(), junk)), 0);
  EXPECT_EQ(services_[0]->malformed_requests(), 1u);
  EXPECT_EQ(services_[0]->not_for_me(), 2u);
  EXPECT_EQ(services_[0]->requests_served(), 0u);
}

// Two operator clients on one fabric: a response misdelivered to the wrong
// client (its dst IP names the other operator) must not be recorded.
TEST_F(QueryServiceFixture, ClientIgnoresResponsesAddressedElsewhere) {
  const auto key = key_of("two-client-key");
  cluster_->write(key, value_of(0xBEEF));

  // Client B shares the management network, but the ARP row for client A's
  // IP is repointed at B's node — every reply to A is misdelivered to B.
  const auto ip_b = net::Ipv4Addr::from_octets(10, 9, 0, 2);
  std::vector<net::Ipv4Addr> service_ips;
  for (const auto& svc : services_) service_ips.push_back(svc->ip());
  auto resolver = [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
    for (const auto& [addr, node] : arp_) {
      if (addr == ip) return node;
    }
    return std::nullopt;
  };
  OperatorClient client_b(*crafter_, ip_b, service_ips, resolver);
  const auto b_node = sim_.add_node(client_b);
  arp_.emplace_back(ip_b, b_node);
  for (const auto& [addr, node] : std::vector<std::pair<net::Ipv4Addr,
                                                        net::NodeId>>(arp_)) {
    if (addr == operator_->ip()) continue;
    if (node != b_node) sim_.connect(b_node, node, 2000);
  }
  for (auto& [addr, node] : arp_) {
    if (addr == operator_->ip()) node = b_node;  // the misconfiguration
  }

  const auto id = operator_->query(key);
  EXPECT_EQ(operator_->pending(), 1u);
  sim_.run();

  // B saw a well-formed response addressed to A and refused it.
  EXPECT_EQ(client_b.stray_responses(), 1u);
  EXPECT_EQ(client_b.responses_received(), 0u);
  EXPECT_FALSE(client_b.take_response(id).has_value());
  // A never got it: the request stays outstanding, nothing was recorded.
  EXPECT_EQ(operator_->pending(), 1u);
  EXPECT_FALSE(operator_->take_response(id).has_value());
}

// Relay node that delivers every packet to `target` twice — a duplicating
// link, the UDP failure mode that used to double-decrement pending_.
class DuplicatingRelay final : public net::Node {
 public:
  explicit DuplicatingRelay(net::NodeId target) : target_(target) {}
  void receive(net::Packet packet, std::uint64_t) override {
    sim_->send(self_, target_, packet.clone());
    sim_->send(self_, target_, std::move(packet));
  }

 private:
  net::NodeId target_;
};

// A duplicated response must retire the request exactly once: the first copy
// is recorded, the second counts as unexpected and cannot corrupt pending().
TEST_F(QueryServiceFixture, DuplicatedResponseRetiresRequestOnce) {
  const auto key = key_of("dup-key");
  cluster_->write(key, value_of(0xD0D0));
  const std::uint32_t owner = cluster_->owner_of(key);

  // Splice the relay into the service→operator return path: the ARP row for
  // the operator's IP now resolves to the relay, which forwards every frame
  // to the operator twice.
  net::NodeId op_node = 0;
  for (const auto& [addr, node] : arp_) {
    if (addr == operator_->ip()) op_node = node;
  }
  DuplicatingRelay relay(op_node);
  const auto relay_node = sim_.add_node(relay);
  for (std::uint32_t c = 0; c < services_.size(); ++c) {
    net::NodeId svc_node = 0;
    for (const auto& [addr, node] : arp_) {
      if (addr == services_[c]->ip()) svc_node = node;
    }
    sim_.connect(svc_node, relay_node, 1000);
  }
  sim_.connect(relay_node, op_node, 1000);
  for (auto& [addr, node] : arp_) {
    if (addr == operator_->ip()) node = relay_node;
  }

  const auto id = operator_->query(key);
  EXPECT_EQ(operator_->pending(), 1u);
  sim_.run();

  EXPECT_EQ(services_[owner]->requests_served(), 1u);
  EXPECT_EQ(operator_->responses_received(), 1u);
  EXPECT_EQ(operator_->unexpected_responses(), 1u);
  EXPECT_EQ(operator_->pending(), 0u);

  const auto resp = operator_->take_response(id);
  ASSERT_TRUE(resp.has_value());
  std::uint64_t got;
  std::memcpy(&got, resp->value.data(), 8);
  EXPECT_EQ(got, 0xD0D0u);
}

// Replayed responses for an already-retired id are ignored outright — they
// must not overwrite responses_ or go negative on anything.
TEST_F(QueryServiceFixture, ReplayedResponseForRetiredIdIsIgnored) {
  const auto key = key_of("replay-key");
  cluster_->write(key, value_of(0xFACE));
  const auto id = operator_->query(key);
  sim_.run();
  EXPECT_EQ(operator_->pending(), 0u);

  // Replay: hand-craft a response with the retired id and a DIFFERENT value.
  QueryResponse forged;
  forged.request_id = id;
  forged.outcome = QueryOutcome::kFound;
  forged.value = value_of(0xBAD);
  operator_->receive(
      net::Packet(query_frame(services_[0]->ip(), operator_->ip(),
                              encode_query_response(forged))),
      0);

  EXPECT_EQ(operator_->unexpected_responses(), 1u);
  EXPECT_EQ(operator_->pending(), 0u);
  const auto resp = operator_->take_response(id);
  ASSERT_TRUE(resp.has_value());
  std::uint64_t got;
  std::memcpy(&got, resp->value.data(), 8);
  EXPECT_EQ(got, 0xFACEu) << "replay must not overwrite the recorded answer";
}

// A request that cannot be sent returns 0, whichever of the ten it is, and
// leaves nothing in flight: here no service address resolves.
TEST(OperatorClientUnsent, EveryRequestReturnsZeroWhenNoServiceResolves) {
  DartConfig cfg;
  cfg.n_slots = 1 << 8;
  cfg.n_addresses = 2;
  cfg.value_bytes = 8;
  const ReportCrafter crafter(cfg);
  const IpResolver nowhere = [](net::Ipv4Addr) -> std::optional<net::NodeId> {
    return std::nullopt;
  };
  OperatorClient client(crafter, net::Ipv4Addr::from_octets(10, 9, 0, 1),
                        {net::Ipv4Addr::from_octets(10, 0, 100, 0),
                         net::Ipv4Addr::from_octets(10, 0, 100, 1)},
                        nowhere);
  const auto key = key_of("unsent");
  const auto gateway = net::Ipv4Addr::from_octets(10, 9, 2, 254);

  EXPECT_EQ(client.query(key), 0u);
  EXPECT_EQ(client.drain_ring(0), 0u);
  EXPECT_EQ(client.read_counter(key), 0u);
  EXPECT_EQ(client.read_postcard_group(key), 0u);
  EXPECT_EQ(client.sketch_estimate(key), 0u);
  EXPECT_EQ(client.sketch_topk(1, 4), 0u);
  EXPECT_EQ(client.subscribe_key_change(gateway, key), 0u);
  EXPECT_EQ(client.subscribe_counter_threshold(gateway, key, 10), 0u);
  EXPECT_EQ(client.subscribe_topk_delta(gateway, 0, 4), 0u);
  EXPECT_EQ(client.unsubscribe(gateway, 1), 0u);
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_EQ(client.queries_sent(), 0u);
}

}  // namespace
}  // namespace dart::core
