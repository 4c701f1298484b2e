// query_mix — operator reads through one QueryGateway beside live writes.
//
// 4 collectors (2 KV, 2 count-min sketch) behind 4 QueryServiceNodes and
// one QueryGateway in a Simulator. Every collector carries DTA counter
// regions: switches route primitives over all loaded primitive rows, which
// must agree with the gateway's 4-way key routing; only KV-owned keys get
// counter increments and counter reads. 256 in-process
// GatewaySessions run a closed loop of rounds: every session issues one
// read, then the simulator drains. Keys come from a 64K-key pool with Zipf
// access; each read uses a family the key's owner serves (a KV get or a
// counter read on KV owners, a sketch estimate on sketch owners). An epoch
// ticks every other round, and right before each tick switch crafting and
// process_frames rewrite 5% of the pool — so no cached answer may ever be
// stale. The gateway and services are wrapped in net::Node proxies that time
// their receive() calls.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "core/query_service.hpp"
#include "harness.hpp"
#include "net/netsim.hpp"
#include "pool.hpp"
#include "query/gateway.hpp"

namespace perfbench {
namespace {

using namespace dart;

constexpr std::uint32_t kValueBytes = 8;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kSegmentBursts = 16;  // write bursts per timed segment

// Forwards attach() and receive() to a wrapped node, timing each receive.
class NodeProxy final : public net::Node {
 public:
  NodeProxy(net::Node& inner, Tracer& tracer, SpanKind kind)
      : inner_(inner), tracer_(tracer), kind_(kind) {}
  void attach(net::Simulator& sim, net::NodeId self) override {
    Node::attach(sim, self);
    inner_.attach(sim, self);
  }
  void receive(net::Packet packet, std::uint64_t now_ns) override {
    Scope span(tracer_, kind_);
    inner_.receive(std::move(packet), now_ns);
  }

 private:
  net::Node& inner_;
  Tracer& tracer_;
  SpanKind kind_;
};

enum class ReadKind : std::uint8_t { kGet, kCounter, kSketch };

struct KeyTruth {
  std::array<std::byte, 8> key{};
  std::uint32_t owner = 0;
  std::array<std::byte, kValueBytes> value{};  // last written (KV owners)
  std::uint64_t cell = 0;                      // counter cell (KV owners)
  std::uint64_t count = 0;                     // reports (sketch owners)
};

// The system under test of one episode.
struct System {
  System(const PoolConfig& pool_cfg, Tracer& tracer, std::size_t n_sessions)
      : pool(pool_cfg), sim(pool_cfg.seed) {
    const auto resolver = [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
      for (const auto& [addr, node] : arp) {
        if (addr == ip) return node;
      }
      return std::nullopt;
    };
    query::QueryGatewayConfig gcfg;
    gcfg.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
    gcfg.cache_capacity = 1 << 16;
    gcfg.cache_max_age_epochs = 0;  // same-epoch hits only
    for (std::uint32_t c = 0; c < pool.size(); ++c) {
      const auto svc_ip = net::Ipv4Addr::from_octets(10, 0, 50, static_cast<std::uint8_t>(c));
      gcfg.service_ips.push_back(svc_ip);
      gcfg.virtual_ips.push_back(
          net::Ipv4Addr::from_octets(10, 9, 2, static_cast<std::uint8_t>(c)));
      services.push_back(std::make_unique<core::QueryServiceNode>(
          pool.collector(c), svc_ip, resolver));
      service_proxies.push_back(std::make_unique<NodeProxy>(
          *services.back(), tracer, SpanKind::kServiceReceive));
    }
    gateway = std::make_unique<query::QueryGateway>(gcfg, pool.crafter(), resolver);
    gateway_proxy = std::make_unique<NodeProxy>(*gateway, tracer, SpanKind::kGatewayReceive);
    const auto gw_node = sim.add_node(*gateway_proxy);
    arp.emplace_back(gcfg.gateway_ip, gw_node);
    for (std::uint32_t c = 0; c < pool.size(); ++c) {
      const auto node = sim.add_node(*service_proxies[c]);
      arp.emplace_back(gcfg.service_ips[c], node);
      arp.emplace_back(gcfg.virtual_ips[c], gw_node);
      sim.connect(gw_node, node, /*latency_ns=*/1000);
    }
    for (std::size_t s = 0; s < n_sessions; ++s) {
      sessions.push_back(&gateway->open_session());
    }
  }

  MixedPool pool;
  net::Simulator sim;
  std::vector<std::pair<net::Ipv4Addr, net::NodeId>> arp;
  std::vector<std::unique_ptr<core::QueryServiceNode>> services;
  std::vector<std::unique_ptr<NodeProxy>> service_proxies;
  std::unique_ptr<query::QueryGateway> gateway;
  std::unique_ptr<NodeProxy> gateway_proxy;
  std::vector<query::GatewaySession*> sessions;
};

class QueryMix final : public Workload {
 public:
  explicit QueryMix(const Options& opt) {
    n_keys_ = opt.smoke ? 4096 : 65'536;
    n_sessions_ = opt.smoke ? 32 : 256;
    n_rounds_ = opt.smoke ? 8 : 64;
    cfg_.dart.n_slots = opt.smoke ? 1 << 14 : 1 << 18;
    cfg_.dart.n_addresses = 2;
    cfg_.dart.value_bytes = kValueBytes;
    cfg_.dart.master_seed = 0x6A7E57 ^ opt.seed;
    cfg_.sketch.rows = 4;
    cfg_.sketch.cols = opt.smoke ? 1 << 10 : 1 << 14;
    cfg_.sketch.seed = 0x5EC7 ^ opt.seed;
    cfg_.n_kv = 2;
    cfg_.n_sketch = 2;
    cfg_.n_switches = 4;
    cfg_.primitives = true;
    cfg_.prim = core::default_primitives(cfg_.dart.master_seed);
    cfg_.prim.counters.n_counters = opt.smoke ? 1 << 14 : 1 << 18;
    cfg_.seed = opt.seed;

    const core::ReportCrafter crafter(cfg_.dart);
    Xoshiro256 rng(opt.seed);
    keys_ = bench::make_pool(n_keys_, [&](std::size_t i) {
      KeyTruth t;
      SplitMix64 mix(i ^ (opt.seed << 32) ^ 0xC0FFEE);
      const std::uint64_t k = mix.next();
      std::memcpy(t.key.data(), &k, 8);
      t.owner = crafter.collector_of(t.key, cfg_.n_kv + cfg_.n_sketch);
      t.cell = (static_cast<std::uint64_t>(t.owner) << 40) |
               cfg_.prim.counters.index_of(t.key);
      return t;
    });
    // Writes: the initial fill, then 5% of the pool before every tick.
    const std::size_t per_tick = std::max<std::size_t>(n_keys_ / 20, 1);
    writes_.push_back(bench::make_pool(n_keys_, [](std::size_t i) { return i; }));
    for (std::size_t r = 1; r < n_rounds_; r += 2) {
      writes_.push_back(bench::make_pool(per_tick, [&](std::size_t) {
        return static_cast<std::size_t>(rng.below(n_keys_));
      }));
    }
    // Reads: Zipf-ranked keys; the family follows the owner.
    const ZipfSampler zipf(n_keys_, 1.0);
    reads_ = bench::make_pool(n_rounds_ * n_sessions_, [&](std::size_t) {
      const std::size_t k = zipf.sample(rng);
      const bool sketch = keys_[k].owner >= cfg_.n_kv;
      const ReadKind kind = sketch ? ReadKind::kSketch
                            : (rng() & 1) != 0 ? ReadKind::kCounter
                                               : ReadKind::kGet;
      return std::make_pair(k, kind);
    });
  }

  void preconditions(Checks& checks) override {
    const std::uint64_t kv_slots = cfg_.n_kv * cfg_.dart.n_slots;
    std::printf("# query_mix: keys=%zu sessions=%zu rounds=%zu (epoch tick "
                "every 2nd round, %zu writes before each); KV slots=%llu "
                "(keys/slot=%.3f); counters/collector=%llu; sketch %ux%llu; "
                "store working set %.1f MiB vs LLC %.1f MiB\n",
                n_keys_, n_sessions_, n_rounds_, writes_.size() > 1 ? writes_[1].size() : 0,
                static_cast<unsigned long long>(kv_slots),
                static_cast<double>(n_keys_ * cfg_.dart.n_addresses) /
                    static_cast<double>(kv_slots + cfg_.n_sketch * cfg_.sketch.n_cells()),
                static_cast<unsigned long long>(cfg_.prim.counters.n_counters),
                cfg_.sketch.rows, static_cast<unsigned long long>(cfg_.sketch.cols),
                static_cast<double>(cfg_.n_kv * cfg_.dart.memory_bytes() +
                                    cfg_.n_sketch * cfg_.sketch.memory_bytes()) /
                    (1 << 20),
                static_cast<double>(llc_bytes()) / (1 << 20));
    checks.require(n_sessions_ > 0 && n_rounds_ >= 2, "query_mix: empty loop");
  }

  Episode run_episode(Tracer& tracer, Checks& checks) override {
    Episode ep;
    events_crafted_ = 0;
    const std::int64_t s0 = now_ns();
    System sys(cfg_, tracer, n_sessions_);
    ep.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
    auto& gw = *sys.gateway;

    std::vector<KeyTruth> truth = keys_;
    Shadow shadow;
    PhaseTimer& ingest = ep.ingest;
    PhaseTimer& query = ep.query;
    std::uint64_t epoch = 0;
    std::size_t tick = 0;
    apply_writes(sys, tracer, ingest, 0, truth, shadow);

    std::vector<std::uint64_t> ids(n_sessions_);
    std::vector<std::int64_t> issued_at(n_sessions_);
    std::vector<std::optional<core::QueryResponse>> kv(n_sessions_);
    std::vector<std::optional<core::PrimitiveResponse>> prim(n_sessions_);
    std::vector<std::optional<core::SketchResponse>> sk(n_sessions_);
    const double eps = std::exp(1.0) / static_cast<double>(cfg_.sketch.cols);
    for (std::size_t r = 0; r < n_rounds_; ++r) {
      if (r % 2 == 1) {
        apply_writes(sys, tracer, ingest, ++tick, truth, shadow);
        query.start();
        {
          Scope span(tracer, SpanKind::kOnEpoch, epoch + 1);
          gw.on_epoch(++epoch);
        }
        query.stop();
      }
      query.start();
      for (std::size_t s = 0; s < n_sessions_; ++s) {
        const auto& [k, kind] = reads_[r * n_sessions_ + s];
        auto& session = *sys.sessions[s];
        issued_at[s] = now_ns();
        Scope span(tracer, SpanKind::kSessionSubmit, r * n_sessions_ + s + 1);
        switch (kind) {
          case ReadKind::kGet: ids[s] = session.query(truth[k].key); break;
          case ReadKind::kCounter: ids[s] = session.read_counter(truth[k].key); break;
          case ReadKind::kSketch: ids[s] = session.sketch_estimate(truth[k].key); break;
        }
      }
      {
        Scope span(tracer, SpanKind::kNetRunQuery);
        sys.sim.run();
      }
      const std::int64_t drained = now_ns();
      for (std::size_t s = 0; s < n_sessions_; ++s) {
        const auto kind = reads_[r * n_sessions_ + s].second;
        auto& session = *sys.sessions[s];
        Scope span(tracer, SpanKind::kSessionTake, r * n_sessions_ + s + 1);
        switch (kind) {
          case ReadKind::kGet: kv[s] = session.take_response(ids[s]); break;
          case ReadKind::kCounter: prim[s] = session.take_primitive_response(ids[s]); break;
          case ReadKind::kSketch: sk[s] = session.take_sketch_response(ids[s]); break;
        }
      }
      query.stop();

      // Check this round against the shadow (state as of the last tick).
      for (std::size_t s = 0; s < n_sessions_; ++s) {
        const auto& [k, kind] = reads_[r * n_sessions_ + s];
        const KeyTruth& t = truth[k];
        ++ep.reads_issued;
        ep.latency_us.push_back(static_cast<double>(drained - issued_at[s]) * 1e-3);
        constexpr std::uint8_t kRefused = core::kResponseGatewayTimeout |
                                          core::kResponsePrimitiveUnavailable |
                                          core::kResponseSketchUnavailable;
        bool answered = false;
        bool correct = false;
        if (kind == ReadKind::kGet && kv[s] && (kv[s]->flags & kRefused) == 0) {
          answered = true;
          if (kv[s]->outcome == core::QueryOutcome::kFound) {
            correct = std::equal(t.value.begin(), t.value.end(),
                                 kv[s]->value.begin(), kv[s]->value.end());
            checks.require(correct, "query_mix: KV get returned a stale or wrong value");
          }
        } else if (kind == ReadKind::kCounter && prim[s] &&
                   (prim[s]->flags & kRefused) == 0) {
          answered = true;
          const std::uint64_t want = shadow.cell_sum[t.cell];
          correct = prim[s]->counter_value == want;
          checks.require(correct, "query_mix: counter read differs from the sum of "
                                  "the increments its cell received");
        } else if (kind == ReadKind::kSketch && sk[s] && (sk[s]->flags & kRefused) == 0) {
          answered = true;
          const std::uint64_t est = sk[s]->estimate;
          checks.require(est >= t.count, "query_mix: sketch estimate below the true count");
          correct = est >= t.count &&
                    static_cast<double>(est - t.count) <=
                        eps * static_cast<double>(shadow.sketch_mass[t.owner - cfg_.n_kv]);
        }
        if (answered) ++ep.reads_answered;
        if (correct) ++ep.reads_correct;
      }
    }

    // --- ledgers --------------------------------------------------------------
    const auto rn = sys.pool.rnic_totals();
    const std::uint64_t emitted = sys.pool.frames_emitted();
    checks.require(rn.frames == rn.executed + rn.rejects,
                   "query_mix: RNIC frames != executed + rejections");
    checks.require(rn.frames == emitted && sys.pool.unroutable() == 0,
                   "query_mix: crafted frames != frames the RNICs saw");
    bool drained_all = gw.inflight() == 0;
    for (const auto* s : sys.sessions) {
      drained_all = drained_all && s->pending() == 0 && s->issued() == s->answered();
    }
    checks.require(drained_all, "query_mix: a session did not drain or a request never retired");

    ep.reports_emitted = emitted;
    ep.reports_executed = rn.executed;

    if (tracer.enabled()) {
      const auto t = tracer.totals();
      const auto k = [](SpanKind s) { return static_cast<int>(s); };
      put_span_stats(ep, tracer, SpanKind::kSessionSubmit, "query.session_submit_ns");
      put_span_stats(ep, tracer, SpanKind::kGatewayReceive, "query.gateway_receive_ns");
      put_span_stats(ep, tracer, SpanKind::kOnEpoch, "query.on_epoch_ns");
      put_span_stats(ep, tracer, SpanKind::kServiceReceive, "core.query_service_receive_ns");
      ep.layer["net.sim_self_ns_per_request"] =
          t.self_ns[k(SpanKind::kNetRunQuery)] / static_cast<double>(ep.reads_issued);
      put_gateway_stats(ep, gw, 0);
      ep.layer["switchsim.craft_ns_per_event"] =
          (t.self_ns[k(SpanKind::kCraftBatch)] + t.self_ns[k(SpanKind::kCraftIncrement)]) /
          static_cast<double>(std::max<std::uint64_t>(events_crafted_, 1));
      ep.layer["switchsim.frames_per_event"] =
          static_cast<double>(emitted) / static_cast<double>(std::max<std::uint64_t>(events_crafted_, 1));
      ep.layer["rdma.kv_ns_per_frame"] =
          t.total_ns[k(SpanKind::kRnicKv)] /
          static_cast<double>(std::max<std::uint64_t>(sys.pool.kv_frames(), 1));
      ep.layer["rdma.sketch_ns_per_frame"] =
          t.total_ns[k(SpanKind::kRnicSketch)] /
          static_cast<double>(std::max<std::uint64_t>(sys.pool.sketch_frames(), 1));
      ep.layer["rdma.executed_ratio"] =
          static_cast<double>(rn.executed) / static_cast<double>(std::max<std::uint64_t>(rn.frames, 1));
      ep.layer["rdma.rejects_total"] = static_cast<double>(rn.rejects);
    }
    return ep;
  }

 private:
  // Ground truth beyond the per-key records: a DTA counter cell holds the
  // sum of the increments of every key that hashes to it, and the sketch
  // error bound scales with each sketch collector's total count.
  struct Shadow {
    std::unordered_map<std::uint64_t, std::uint64_t> cell_sum;
    std::uint64_t sketch_mass[2] = {};
  };

  // Crafts and delivers write batch `w`: a telemetry report per key (a new
  // value on KV owners, a count on sketch owners) and a counter increment
  // on KV owners. Updates the shadow.
  void apply_writes(System& sys, Tracer& tracer, PhaseTimer& timer, std::size_t w,
                    std::vector<KeyTruth>& truth, Shadow& shadow) {
    const auto& batch = writes_[w];
    auto& sw = sys.pool.switch_at(static_cast<std::uint32_t>(w % sys.pool.n_switches()));
    std::vector<std::array<std::byte, kValueBytes>> values(batch.size());
    std::vector<switchsim::DartSwitchPipeline::TelemetryEvent> events(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      KeyTruth& t = truth[batch[i]];
      const std::uint64_t v = (static_cast<std::uint64_t>(w) << 32) | i;
      std::memcpy(values[i].data(), &v, kValueBytes);
      events[i] = {t.key, values[i]};
      if (t.owner >= cfg_.n_kv) {
        ++t.count;
        ++shadow.sketch_mass[t.owner - cfg_.n_kv];
      } else {
        t.value = values[i];
        shadow.cell_sum[t.cell] += w % 7 + 1;
      }
    }
    const std::span<const switchsim::DartSwitchPipeline::TelemetryEvent> all(events);
    // Reused across bursts: assigning the next burst's frames frees the
    // previous ones inside the craft span, which allocated them.
    std::vector<std::vector<std::byte>> frames;
    for (std::size_t i = 0; i < all.size(); i += kBurst) {
      const std::size_t burst = i / kBurst;
      if (burst % kSegmentBursts == 0) timer.start();
      {
        Scope span(tracer, SpanKind::kCraftBatch);
        frames = sw.on_telemetry_batch(all.subspan(i, std::min(kBurst, all.size() - i)));
      }
      {
        Scope span(tracer, SpanKind::kCraftIncrement);
        for (std::size_t j = i; j < std::min(i + kBurst, all.size()); ++j) {
          if (truth[batch[j]].owner < cfg_.n_kv) {
            frames.push_back(sw.on_increment_event(truth[batch[j]].key, w % 7 + 1));
            ++events_crafted_;
          }
        }
      }
      sys.pool.deliver(frames, tracer);
      if (burst % kSegmentBursts == kSegmentBursts - 1 || i + kBurst >= all.size()) {
        timer.stop();
      }
    }
    events_crafted_ += batch.size();
  }

  PoolConfig cfg_;
  std::size_t n_keys_ = 0;
  std::size_t n_sessions_ = 0;
  std::size_t n_rounds_ = 0;
  std::vector<KeyTruth> keys_;
  std::vector<std::vector<std::size_t>> writes_;  // [0] = initial fill, [t] = tick t
  std::vector<std::pair<std::size_t, ReadKind>> reads_;
  std::uint64_t events_crafted_ = 0;  // this episode's telemetry + increment events
};

}  // namespace

std::unique_ptr<Workload> make_query_mix(const Options& opt) {
  return std::make_unique<QueryMix>(opt);
}

}  // namespace perfbench
