// Gateway pipeline properties: N concurrent operator sessions issue
// interleaved KV / primitive / sketch reads through the QueryGateway while
// the upstream (gateway ↔ service) path drops packets at random and a
// mid-stream failover retargets one collector at its backup. The contract:
//
//   always answered   every submitted request produces exactly one answer —
//                     a live one, a cached one, or a synthesized timeout —
//                     so session pending() and gateway inflight() drain to 0
//   truth or flagged  every answer either matches the single-threaded
//                     cluster-local oracle exactly (flags == 0) or carries a
//                     degradation flag (degraded / unavailable / timeout)
//   ledger            upstream sends = live answers + retries that fed them,
//                     and cache hits never reach the services
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "check/property.hpp"
#include "check/rng.hpp"
#include "core/cluster.hpp"
#include "core/primitives.hpp"
#include "core/query_service.hpp"
#include "net/netsim.hpp"
#include "query/gateway.hpp"

namespace dart::check {
namespace {

// Drops each packet with probability `p_millis`/1000, deterministically from
// its own seed; survivors are forwarded to `target`.
class LossyRelay final : public net::Node {
 public:
  LossyRelay(net::NodeId target, std::uint32_t p_millis, std::uint64_t seed)
      : target_(target), p_millis_(p_millis), state_(seed | 1) {}
  void receive(net::Packet packet, std::uint64_t) override {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    if (z % 1000 < p_millis_) return;  // dropped
    sim_->send(self_, target_, std::move(packet));
  }

 private:
  net::NodeId target_;
  std::uint32_t p_millis_;
  std::uint64_t state_;
};

enum class OpKind : std::uint8_t { kKv, kCounter, kSketch };

struct IssuedOp {
  std::size_t session = 0;
  OpKind kind = OpKind::kKv;
  std::uint64_t id = 0;
  std::vector<std::byte> key;
};

std::optional<Failure> gateway_pipeline_property(Rng& rng) {
  core::DartConfig cfg;
  cfg.n_slots = 1 << 8;
  cfg.n_addresses = 2;
  cfg.value_bytes = 8;
  cfg.master_seed = 0x6A00 + rng.below(16);
  constexpr std::uint32_t kCollectors = 2;
  core::CollectorCluster cluster(cfg, kCollectors);
  const auto prim = core::default_primitives(cfg.master_seed);
  for (std::uint32_t c = 0; c < kCollectors; ++c) {
    if (!cluster.collector(c).enable_primitives(prim).ok()) {
      return Failure{"enable_primitives failed", {}};
    }
  }

  net::Simulator sim{1 + rng.below(1000)};
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp;
  auto resolver = [&arp](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
    for (const auto& [addr, node] : arp) {
      if (addr == ip) return node;
    }
    return std::nullopt;
  };

  dart::query::QueryGatewayConfig gcfg;
  gcfg.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
  gcfg.request_timeout_ns = 100'000;
  gcfg.max_retries = 4;
  std::vector<std::unique_ptr<core::QueryServiceNode>> services;
  for (std::uint32_t c = 0; c < kCollectors; ++c) {
    const auto svc_ip =
        net::Ipv4Addr::from_octets(10, 0, 50, static_cast<std::uint8_t>(c));
    gcfg.service_ips.push_back(svc_ip);
    gcfg.virtual_ips.push_back(
        net::Ipv4Addr::from_octets(10, 9, 2, static_cast<std::uint8_t>(c)));
    services.push_back(std::make_unique<core::QueryServiceNode>(
        cluster.collector(c), svc_ip, resolver));
    services.back()->set_deployment(&cluster.crafter(), kCollectors);
  }
  dart::query::QueryGateway gateway(gcfg, cluster.crafter(), resolver);

  const auto gw_node = sim.add_node(gateway);
  arp.emplace_back(gcfg.gateway_ip, gw_node);
  std::vector<net::NodeId> svc_nodes;
  for (std::uint32_t c = 0; c < kCollectors; ++c) {
    const auto node = sim.add_node(*services[c]);
    svc_nodes.push_back(node);
    arp.emplace_back(gcfg.service_ips[c], node);
    arp.emplace_back(gcfg.virtual_ips[c], gw_node);
    sim.connect(gw_node, node, 500 + rng.below(2000));
  }

  // Random loss on the UPSTREAM path only (both directions): requests to the
  // services and responses back to the gateway run through lossy relays. The
  // gateway's deadline + retry machinery is what keeps the contract alive.
  const auto p_millis = static_cast<std::uint32_t>(rng.below(350));
  std::vector<std::unique_ptr<LossyRelay>> relays;
  const auto splice = [&](net::Ipv4Addr ip, net::NodeId endpoint) {
    relays.push_back(
        std::make_unique<LossyRelay>(endpoint, p_millis, rng.u64()));
    const auto relay_node = sim.add_node(*relays.back());
    sim.connect(relay_node, gw_node, 300);
    for (const auto svc : svc_nodes) sim.connect(relay_node, svc, 300);
    for (auto& [addr, node] : arp) {
      if (addr == ip) node = relay_node;
    }
  };
  if (p_millis > 0) {
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      splice(gcfg.service_ips[c], svc_nodes[c]);
    }
    splice(gcfg.gateway_ip, gw_node);
  }

  // Workload state: a small key pool so coalescing and caching actually
  // trigger, all writes landed before any request is delivered.
  constexpr std::uint64_t kPool = 8;
  std::vector<std::vector<std::byte>> pool;
  std::vector<bool> written(kPool, false);
  for (std::uint64_t k = 0; k < kPool; ++k) {
    std::vector<std::byte> key(8);
    std::memcpy(key.data(), &k, 8);
    key[7] = static_cast<std::byte>(0xA0 + k);
    pool.push_back(key);
    if (rng.chance(0.7)) {
      cluster.write(pool[k], rng.bytes(cfg.value_bytes));
      written[k] = true;
    }
    if (rng.chance(0.5)) {
      (void)cluster.collector(cluster.owner_of(pool[k]))
          .counters()
          .fetch_add(pool[k], 1 + rng.below(1000));
    }
  }

  const auto n_sessions = 1 + rng.below(6);
  std::vector<dart::query::GatewaySession*> sessions;
  for (std::uint64_t s = 0; s < n_sessions; ++s) {
    sessions.push_back(&gateway.open_session());
  }

  std::vector<IssuedOp> issued;
  const auto issue_phase = [&](std::uint64_t ops_per_session) {
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      for (std::uint64_t i = 0; i < ops_per_session; ++i) {
        IssuedOp op;
        op.session = s;
        op.key = pool[rng.below(kPool)];
        switch (rng.below(3)) {
          case 0:
            op.kind = OpKind::kKv;
            op.id = sessions[s]->query(op.key);
            break;
          case 1:
            op.kind = OpKind::kCounter;
            op.id = sessions[s]->read_counter(op.key);
            break;
          default:
            op.kind = OpKind::kSketch;
            op.id = sessions[s]->sketch_estimate(op.key);
            break;
        }
        if (op.id == 0) continue;  // unroutable (never expected here)
        issued.push_back(std::move(op));
      }
    }
  };

  issue_phase(1 + rng.below(4));
  sim.run();

  // Mid-stream failover: one collector dies, its backup takes over, the
  // gateway is retargeted — then a second wave of requests rides the new
  // routing. The epoch tick invalidates phase-1 cache entries.
  const bool failover = rng.chance(0.6);
  std::uint32_t dead = 0;
  if (failover) {
    dead = static_cast<std::uint32_t>(rng.below(kCollectors));
    const std::uint32_t backup = (dead + 1) % kCollectors;
    services[dead]->set_online(false);
    services[backup]->begin_takeover(dead, /*stale_epochs=*/1);
    gateway.retarget(dead, backup);
  }
  gateway.on_epoch(1);
  issue_phase(1 + rng.below(4));
  sim.run();

  // --- always answered ------------------------------------------------------
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (sessions[s]->pending() != 0) {
      return Failure{"session " + std::to_string(s) + " still has " +
                         std::to_string(sessions[s]->pending()) +
                         " pending after the run",
                     {}};
    }
  }
  if (gateway.inflight() != 0) {
    return Failure{"gateway inflight() != 0 after the run", {}};
  }

  // --- truth or flagged -----------------------------------------------------
  for (const auto& op : issued) {
    auto* session = sessions[op.session];
    switch (op.kind) {
      case OpKind::kKv: {
        const auto resp = session->take_response(op.id);
        if (!resp.has_value()) {
          return Failure{"KV answer lost for id " + std::to_string(op.id), {}};
        }
        if (resp->flags != 0) break;  // degraded/timeout answers are exempt
        const auto truth = cluster.query(op.key);
        if (resp->outcome != truth.outcome || resp->value != truth.value) {
          return Failure{"unflagged KV answer diverged from the oracle", {}};
        }
        break;
      }
      case OpKind::kCounter: {
        const auto resp = session->take_primitive_response(op.id);
        if (!resp.has_value()) {
          return Failure{"counter answer lost for id " + std::to_string(op.id),
                         {}};
        }
        if (resp->flags != 0) break;
        const auto truth = cluster.collector(cluster.owner_of(op.key))
                               .counters()
                               .estimate(op.key);
        if (resp->counter_value != truth) {
          return Failure{"unflagged counter read " +
                             std::to_string(resp->counter_value) +
                             " diverged from oracle " + std::to_string(truth),
                         {}};
        }
        break;
      }
      case OpKind::kSketch: {
        const auto resp = session->take_sketch_response(op.id);
        if (!resp.has_value()) {
          return Failure{"sketch answer lost for id " + std::to_string(op.id),
                         {}};
        }
        // KV-backed collectors cannot answer sketch ops: every answer must
        // be flagged (unavailable, or degraded/timeout under faults).
        if (resp->flags == 0) {
          return Failure{"sketch op against a KV backend came back unflagged",
                         {}};
        }
        break;
      }
    }
  }

  // --- ledger ---------------------------------------------------------------
  std::uint64_t served = 0;
  for (const auto& svc : services) served += svc->requests_served();
  if (p_millis == 0) {
    // Lossless runs: no retries, no timeouts, and the services saw exactly
    // the non-coalesced non-cached upstream sends.
    if (gateway.upstream_retries() != 0 || gateway.upstream_timeouts() != 0) {
      return Failure{"lossless run recorded retries or timeouts", {}};
    }
    if (!failover && served != gateway.upstream_sent()) {
      return Failure{"services served " + std::to_string(served) +
                         " but the gateway sent " +
                         std::to_string(gateway.upstream_sent()),
                     {}};
    }
  }
  if (gateway.requests_total() != issued.size()) {
    return Failure{"request ledger " + std::to_string(gateway.requests_total()) +
                       " != issued " + std::to_string(issued.size()),
                   {}};
  }
  const auto answered_upstream =
      gateway.upstream_sent() - gateway.upstream_retries();
  if (answered_upstream + gateway.cache().hits() + gateway.coalesced_total() !=
      issued.size()) {
    return Failure{"upstream + cache + coalesce ledger does not cover issued",
                   {}};
  }
  return std::nullopt;
}

TEST(PropGateway, ConcurrentSessionsUnderLossAndFailoverMatchOracleOrFlag) {
  const auto report =
      check("gateway_pipeline", gateway_pipeline_property, {});
  EXPECT_TRUE(report.passed) << report.message << "\nrepro: " << report.repro;
  EXPECT_GE(report.cases_run, 1000u);
}

}  // namespace
}  // namespace dart::check
