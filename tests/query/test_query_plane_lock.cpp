// Behaviour lock for the query plane. One seeded scenario drives every
// front end over a lossy management network:
//  - 2 KV collectors with DTA primitives, each behind a QueryServiceNode;
//  - a QueryGateway (100 us upstream timeout, 3 retries) with 3 sessions;
//  - a wire OperatorClient on the gateway's virtual IPs (400 us, 2 retries);
//  - a direct OperatorClient on the service IPs (100 us, 2 retries);
//  - 15% loss on the gateway-service links, 10% on the client links.
// Six rounds of 12 reads per client mix all six read ops; sessions and the
// wire client hold standing queries (one is dropped in round 3); collector 1
// is retargeted to 0 in rounds 2-3; the cluster is rewritten and the epoch
// ticks after every round.
//
// Everything observable goes into one xxhash64 digest per seed: every read
// answer re-encoded (or its absence), each client read's timed_out flag,
// every notification's bytes, each subscribe ack's subscription id and
// flags, the counters of the gateway, sessions, clients and services, the
// clock, and the simulator's delivered and dropped totals. A change that
// moves any answer, retry, timeout or counter moves a digest.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "common/hash.hpp"
#include "core/cluster.hpp"
#include "core/primitives.hpp"
#include "core/query_service.hpp"
#include "net/netsim.hpp"
#include "obs/metric.hpp"
#include "query/gateway.hpp"

namespace dart::query {
namespace {

constexpr std::uint32_t kCollectors = 2;
constexpr std::size_t kSessions = 3;
constexpr std::uint64_t kKeys = 24;
constexpr int kRounds = 6;
constexpr int kReadsPerClient = 12;

std::vector<std::byte> key_of(std::uint64_t k) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &k, 8);
  return out;
}

std::vector<std::byte> filled(std::size_t n, std::uint64_t v) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((v >> (8 * (i % 8))) + i);
  }
  return out;
}

class Digest {
 public:
  void mix(std::uint64_t v) { h_ = xxhash64_of(v, h_); }
  void bytes(std::span<const std::byte> b) {
    mix(b.size());
    h_ = xxhash64(b, h_);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0;
};

// The six read ops, in the order the scenario draws them.
enum class Op : std::uint8_t {
  kQuery,
  kCounter,
  kPostcard,
  kEstimate,
  kDrain,
  kTopK,
};

template <typename Client>
std::uint64_t issue(Client& client, Op op, std::span<const std::byte> key,
                    std::uint32_t collector) {
  switch (op) {
    case Op::kQuery: return client.query(key);
    case Op::kCounter: return client.read_counter(key);
    case Op::kPostcard: return client.read_postcard_group(key);
    case Op::kEstimate: return client.sketch_estimate(key);
    case Op::kDrain: return client.drain_ring(collector, 4);
    case Op::kTopK: return client.sketch_topk(collector, 4);
  }
  return 0;
}

// Digests the answer to read `id`, re-encoded, or a marker for its absence.
template <typename Client>
void take_answer(Client& client, Op op, std::uint64_t id, Digest& d) {
  d.mix(id);
  switch (op) {
    case Op::kQuery:
      if (const auto r = client.take_response(id)) {
        d.bytes(core::encode_query_response(*r));
        return;
      }
      break;
    case Op::kCounter:
    case Op::kPostcard:
    case Op::kDrain:
      if (const auto r = client.take_primitive_response(id)) {
        d.bytes(core::encode_primitive_response(*r));
        return;
      }
      break;
    case Op::kEstimate:
    case Op::kTopK:
      if (const auto r = client.take_sketch_response(id)) {
        d.bytes(core::encode_sketch_response(*r));
        return;
      }
      break;
  }
  d.mix(0xAB5E);
}

template <typename Client>
void take_notes(Client& client, Digest& d) {
  for (const auto& note : client.take_notifications()) {
    d.bytes(core::encode_notification(note));
  }
}

void digest_ack(const std::optional<core::SubscribeAck>& ack, Digest& d) {
  if (!ack) {
    d.mix(0xAB5E);
    return;
  }
  d.mix(ack->subscription_id);
  d.mix(ack->flags);
}

struct Plane {
  explicit Plane(std::uint64_t seed) : sim(seed) {
    cfg.n_slots = 1 << 8;
    cfg.n_addresses = 2;
    cfg.value_bytes = 8;
    cfg.master_seed = 0x10C4;
    cluster = std::make_unique<core::CollectorCluster>(cfg, kCollectors);
    const auto prim = core::default_primitives(cfg.master_seed);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      (void)cluster->collector(c).enable_primitives(prim);
    }
    const core::IpResolver resolver =
        [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
      for (const auto& [addr, node] : arp) {
        if (addr == ip) return node;
      }
      return std::nullopt;
    };

    QueryGatewayConfig gcfg;
    gcfg.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
    gcfg.request_timeout_ns = 100'000;
    gcfg.max_retries = 3;
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      const auto n = static_cast<std::uint8_t>(c);
      gcfg.virtual_ips.push_back(net::Ipv4Addr::from_octets(10, 9, 2, n));
      gcfg.service_ips.push_back(net::Ipv4Addr::from_octets(10, 0, 50, n));
      services.push_back(std::make_unique<core::QueryServiceNode>(
          cluster->collector(c), gcfg.service_ips[c], resolver));
      services.back()->set_deployment(&cluster->crafter(), kCollectors);
    }
    gateway =
        std::make_unique<QueryGateway>(gcfg, cluster->crafter(), resolver);
    wire = std::make_unique<core::OperatorClient>(
        cluster->crafter(), net::Ipv4Addr::from_octets(10, 9, 9, 1),
        gcfg.virtual_ips, resolver);
    wire->enable_timeouts(400'000, 2);
    direct = std::make_unique<core::OperatorClient>(
        cluster->crafter(), net::Ipv4Addr::from_octets(10, 9, 9, 2),
        gcfg.service_ips, resolver);
    direct->enable_timeouts(100'000, 2);

    const auto gw_node = sim.add_node(*gateway);
    arp.emplace_back(gcfg.gateway_ip, gw_node);
    const auto wire_node = sim.add_node(*wire);
    arp.emplace_back(wire->ip(), wire_node);
    sim.connect(wire_node, gw_node, 1000, 0.10);
    const auto direct_node = sim.add_node(*direct);
    arp.emplace_back(direct->ip(), direct_node);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      const auto svc_node = sim.add_node(*services[c]);
      arp.emplace_back(gcfg.service_ips[c], svc_node);
      arp.emplace_back(gcfg.virtual_ips[c], gw_node);
      sim.connect(gw_node, svc_node, 1000, 0.15);
      sim.connect(direct_node, svc_node, 1000, 0.10);
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(&gateway->open_session());
    }
    gateway->bind_metrics(registry, "lock");
  }

  core::DartConfig cfg;
  std::unique_ptr<core::CollectorCluster> cluster;
  net::Simulator sim;
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp;
  std::vector<std::unique_ptr<core::QueryServiceNode>> services;
  std::unique_ptr<QueryGateway> gateway;
  std::unique_ptr<core::OperatorClient> wire;
  std::unique_ptr<core::OperatorClient> direct;
  std::vector<GatewaySession*> sessions;
  obs::MetricRegistry registry;
};

void rewrite(Plane& p, std::mt19937_64& rng, int round) {
  for (int i = 0; i < 8; ++i) {
    const auto key = key_of(rng() % kKeys);
    p.cluster->write(key, filled(8, rng()));
    (void)p.cluster->collector(p.cluster->owner_of(key))
        .counters()
        .fetch_add(key, 1 + rng() % 3);
  }
  for (std::uint32_t c = 0; c < kCollectors; ++c) {
    auto& collector = p.cluster->collector(c);
    const auto value_bytes = collector.ring().config().value_bytes;
    for (int e = 0; e < 3; ++e) {
      const auto seq = static_cast<std::uint64_t>(round * 3 + e + 1);
      collector.ring().write_entry(seq, filled(value_bytes, seq + c));
    }
    const auto flow = key_of(rng() % kKeys);
    collector.postcards().write_hop(
        flow, static_cast<std::uint32_t>(rng() % 4),
        filled(collector.postcards().config().value_bytes, rng()));
  }
}

void digest_counters(Plane& p, Digest& d) {
  const auto& gw = *p.gateway;
  for (const std::uint64_t v :
       {gw.requests_total(), gw.coalesced_total(), gw.upstream_sent(),
        gw.upstream_retries(), gw.upstream_timeouts(),
        gw.upstream_unexpected(), gw.notifications_sent(),
        gw.subscribes_accepted(), gw.subscribes_rejected(),
        std::uint64_t{gw.inflight()}, std::uint64_t{gw.inflight_highwater()},
        std::uint64_t{gw.n_standing()}, p.gateway->cache().hits(),
        p.gateway->cache().misses(), p.gateway->cache().inserts(),
        p.gateway->cache().evictions(), gw.latency_kv().total,
        gw.latency_primitive().total, gw.latency_sketch().total}) {
    d.mix(v);
  }
  const auto snap = p.registry.snapshot();
  for (const char* name : {"lock_gateway_malformed_total",
                           "lock_gateway_not_for_me_total",
                           "lock_gateway_unroutable_total"}) {
    d.mix(static_cast<std::uint64_t>(snap.value_of(name)));
  }
  for (const GatewaySession* s : p.sessions) {
    for (const std::uint64_t v :
         {std::uint64_t{s->pending()}, s->issued(), s->answered(),
          s->degraded(), s->notifications_received()}) {
      d.mix(v);
    }
  }
  for (const core::OperatorClient* c : {p.wire.get(), p.direct.get()}) {
    for (const std::uint64_t v :
         {std::uint64_t{c->pending()}, c->queries_sent(),
          c->responses_received(), c->stray_responses(),
          c->unexpected_responses(), c->degraded_responses(), c->timeouts(),
          c->retries(), c->notifications_received()}) {
      d.mix(v);
    }
  }
  for (const auto& svc : p.services) {
    for (const std::uint64_t v :
         {svc->requests_served(), svc->malformed_requests(), svc->not_for_me(),
          svc->degraded_served(), svc->dropped_offline(),
          svc->primitives_served(), svc->primitives_unavailable(),
          svc->sketch_served(), svc->sketch_unavailable()}) {
      d.mix(v);
    }
  }
}

std::uint64_t run_scenario(std::uint64_t seed) {
  Plane p(seed);
  std::mt19937_64 rng(seed);
  Digest d;
  const auto gw_ip = p.gateway->config().gateway_ip;

  // Standing queries: three kinds from sessions, two from the wire client.
  const auto key_change = p.sessions[0]->subscribe_key_change(key_of(0));
  const auto key_change_ack = p.sessions[0]->take_subscribe_ack(key_change);
  digest_ack(key_change_ack, d);
  digest_ack(p.sessions[1]->take_subscribe_ack(
                 p.sessions[1]->subscribe_counter_threshold(key_of(1), 3)),
             d);
  digest_ack(p.sessions[2]->take_subscribe_ack(
                 p.sessions[2]->subscribe_topk_delta(0, 4)),
             d);
  const auto wire_key = p.wire->subscribe_key_change(gw_ip, key_of(2));
  const auto wire_counter =
      p.wire->subscribe_counter_threshold(gw_ip, key_of(3), 5);
  p.sim.run();
  digest_ack(p.wire->take_subscribe_ack(wire_key), d);
  digest_ack(p.wire->take_subscribe_ack(wire_counter), d);

  struct Read {
    std::size_t client;  // 0..2 sessions, 3 wire, 4 direct
    Op op;
    std::uint64_t id;
  };
  for (int round = 0; round < kRounds; ++round) {
    if (round == 2) {
      p.gateway->retarget(1, 0);
      p.direct->retarget(1, 0);
    }
    if (round == 4) {
      p.gateway->clear_retarget(1);
      p.direct->clear_retarget(1);
    }
    if (round == 3 && key_change_ack) {
      digest_ack(p.sessions[0]->take_subscribe_ack(p.sessions[0]->unsubscribe(
                     key_change_ack->subscription_id)),
                 d);
    }

    std::vector<Read> reads;
    for (std::size_t client = 0; client < kSessions + 2; ++client) {
      for (int i = 0; i < kReadsPerClient; ++i) {
        const auto op = static_cast<Op>(rng() % 6);
        const auto key = key_of(rng() % kKeys);
        const auto collector = static_cast<std::uint32_t>(rng() % kCollectors);
        std::uint64_t id = 0;
        if (client < kSessions) {
          id = issue(*p.sessions[client], op, key, collector);
        } else {
          id = issue(client == kSessions ? *p.wire : *p.direct, op, key,
                     collector);
        }
        reads.push_back({client, op, id});
      }
    }
    p.sim.run();
    for (const Read& r : reads) {
      if (r.client < kSessions) {
        take_answer(*p.sessions[r.client], r.op, r.id, d);
        continue;
      }
      auto& client = r.client == kSessions ? *p.wire : *p.direct;
      take_answer(client, r.op, r.id, d);
      d.mix(client.timed_out(r.id) ? 1 : 0);
    }

    rewrite(p, rng, round);
    const auto epoch = static_cast<std::uint32_t>(round + 1);
    p.gateway->on_epoch(epoch);
    p.wire->set_epoch(epoch);
    p.direct->set_epoch(epoch);
    p.sim.run();
    for (GatewaySession* s : p.sessions) take_notes(*s, d);
    take_notes(*p.wire, d);
  }

  digest_counters(p, d);
  d.mix(p.sim.now_ns());
  d.mix(p.sim.total_delivered());
  d.mix(p.sim.total_dropped());
  return d.value();
}

TEST(QueryPlaneLock, SeededScenarioDigestsArePinned) {
  // Pinned on the tree before the shared client core; a change that moves
  // one says why in CHANGES.md.
  constexpr std::array<std::uint64_t, 10> kPinned = {
      0x640c86261f482ed7ull, 0xc38fbf826a94b73full, 0x1269ba6ed893aa91ull,
      0x049f4034f7d33267ull, 0x61d9648263815583ull, 0x5892d59fdad51ac0ull,
      0x5aaeaf39d2416c6cull, 0x2e8f113867b26ca2ull, 0xecd8a2c34ca686b1ull,
      0x9024a4eceb7766b0ull,
  };
  for (std::uint64_t seed = 1; seed <= kPinned.size(); ++seed) {
    const auto digest = run_scenario(seed);
    EXPECT_EQ(digest, kPinned[seed - 1])
        << "seed " << seed << " digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace dart::query
