// fabric_int — the paper's Fig. 4 INT path on a packet-forwarding fat tree.
//
// A WireFabric with k=8 (80 switches, 128 hosts) and 4 KV collectors; N=2,
// kAllSlots, 20 B values, 1% loss on the monitoring underlay and
// bandwidth-shaped data links, so INT samples real queue depths. Flows from
// FlowGenerator arrive in sim-time waves at a fixed rate (each wave is
// scheduled by the previous one, so the event queue stays small). Every
// flow's path is then read once through the gateway-fronted OperatorClient
// in closed-loop rounds and compared with FatTree::path.
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "harness.hpp"
#include "telemetry/int_path.hpp"
#include "telemetry/wire_fabric.hpp"
#include "telemetry/workload.hpp"

namespace perfbench {
namespace {

using namespace dart;

struct FlowInput {
  telemetry::FlowEndpoints flow;
  std::vector<std::uint32_t> path;  // ground truth: FatTree::path
};

class FabricInt final : public Workload {
 public:
  explicit FabricInt(const Options& opt) {
    k_ = opt.smoke ? 4 : 8;
    n_flows_ = opt.smoke ? 512 : 4096;
    cfg_.fat_tree_k = k_;
    cfg_.dart.n_slots = 1 << 14;
    cfg_.dart.n_addresses = 2;
    cfg_.dart.value_bytes = 20;
    cfg_.dart.master_seed = 0x0B5 ^ opt.seed;
    cfg_.n_collectors = 4;
    cfg_.switch_write_mode = core::WriteMode::kAllSlots;
    cfg_.report_loss_rate = 0.01;
    cfg_.data_link_shape.bandwidth_bps = 10'000'000'000ull;  // 10 Gb/s
    cfg_.seed = opt.seed;

    // Input pool: flows and their true paths, generated once per run.
    switchsim::FatTree topo(k_);
    telemetry::FlowGenerator gen(topo, opt.seed + 13);
    flows_ = bench::make_pool(n_flows_, [&](std::size_t i) {
      FlowInput in;
      in.flow = gen.flow_at(i);
      const auto key = in.flow.tuple.key_bytes();
      in.path = topo.path(in.flow.src_host, in.flow.dst_host,
                          xxhash64(key, 0xECB9));
      return in;
    });
  }

  void preconditions(Checks& checks) override {
    const std::uint64_t keys_per_collector = n_flows_ / cfg_.n_collectors;
    std::printf("# fabric_int: k=%u flows/episode=%llu packets/flow=%u "
                "wave=%u flows every %llu ns; slots/collector=%llu "
                "(keys/slot=%.3f)\n",
                k_, static_cast<unsigned long long>(n_flows_), kPackets,
                kWaveFlows, static_cast<unsigned long long>(kWaveGapNs),
                static_cast<unsigned long long>(cfg_.dart.n_slots),
                static_cast<double>(keys_per_collector * cfg_.dart.n_addresses) /
                    static_cast<double>(cfg_.dart.n_slots));
    checks.require(n_flows_ > 0 && !flows_.empty(), "empty flow pool");
  }

  // Loss on the monitoring link (excluded from the fail ratio) plus
  // collisions bound queryability.
  [[nodiscard]] double correct_floor() const override { return 0.95; }

  Episode run_episode(Tracer& tracer, Checks& checks) override {
    Episode ep;
    const std::int64_t s0 = now_ns();
    auto fabric = std::make_unique<telemetry::WireFabric>(cfg_);
    (void)fabric->attach_gateway();
    ep.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
    auto& sim = fabric->simulator();
    auto& op = *fabric->gateway_operator_client();
    auto& gw = *fabric->gateway();

    // --- ingest: sim-time waves ---------------------------------------------
    std::size_t next_flow = 0;
    std::function<void()> wave = [&] {
      const std::size_t end = std::min(next_flow + kWaveFlows, flows_.size());
      for (; next_flow < end; ++next_flow) {
        const auto& fe = flows_[next_flow].flow;
        Scope span(tracer, SpanKind::kSendFlow, next_flow + 1);
        fabric->send_flow(fe.tuple, fe.src_host, kPackets);
      }
      if (next_flow < flows_.size()) {
        sim.schedule(sim.now_ns() + kWaveGapNs, wave);
      }
    };
    const std::uint64_t t0 = sim.now_ns();
    sim.schedule(t0, wave);
    // Timed in segments of one wave gap of simulated time, then the drain.
    PhaseTimer& ingest = ep.ingest;
    const std::size_t n_waves = (flows_.size() + kWaveFlows - 1) / kWaveFlows;
    for (std::size_t w = 1; w <= n_waves + 1; ++w) {
      ingest.start();
      {
        Scope span(tracer, SpanKind::kNetRunIngest);
        sim.run(w <= n_waves ? t0 + w * kWaveGapNs : UINT64_MAX);
      }
      ingest.stop();
    }
    const std::uint64_t delivered_after_ingest = sim.total_delivered();

    // --- ledgers ------------------------------------------------------------
    const auto st = fabric->stats();
    std::uint64_t mon_delivered = 0, mon_dropped = 0, mon_other = 0;
    for (std::uint32_t s = 0; s < fabric->n_switches(); ++s) {
      for (std::uint32_t c = 0; c < fabric->n_collectors(); ++c) {
        const auto& ls = sim.link_stats(fabric->monitoring_link(s, c));
        mon_delivered += ls.delivered;
        mon_dropped += ls.dropped;
        mon_other += ls.queue_drops + ls.partitioned;
      }
    }
    std::uint64_t frames = 0, executed = 0, rejects = 0;
    std::map<std::string, double> reasons;
    for (std::uint32_t c = 0; c < fabric->n_collectors(); ++c) {
      const auto& rc = fabric->cluster().collector(c).ingest_counters();
      frames += rc.frames;
      executed += rc.executed;
      rejects += count_rejects(rc, &reasons);
    }
    checks.require(frames == executed + rejects,
                   "fabric_int: RNIC frames != executed + rejections");
    checks.require(st.reports_emitted == mon_delivered + mon_dropped + mon_other,
                   "fabric_int: monitoring emitted != delivered + dropped");
    checks.require(frames == mon_delivered,
                   "fabric_int: RNIC frames != monitoring delivered");
    checks.require(st.host_packets_received == st.host_packets_sent &&
                       st.host_packets_sent == n_flows_ * kPackets,
                   "fabric_int: data packets lost in the fabric");

    ep.reports_emitted = st.reports_emitted - mon_dropped;
    ep.reports_executed = executed;

    // --- query: every flow's path, closed-loop rounds -------------------------
    PhaseTimer& query = ep.query;
    std::vector<std::uint64_t> ids(kRound);
    std::vector<std::int64_t> issued_at(kRound);
    for (std::size_t base = 0; base < flows_.size(); base += kRound) {
      const std::size_t n = std::min(kRound, flows_.size() - base);
      query.start();
      for (std::size_t i = 0; i < n; ++i) {
        const auto key = flows_[base + i].flow.tuple.key_bytes();
        issued_at[i] = now_ns();
        Scope span(tracer, SpanKind::kOperatorQuery, base + i + 1);
        ids[i] = op.query(key);
      }
      {
        Scope span(tracer, SpanKind::kNetRunQuery);
        sim.run();
      }
      const std::int64_t drained = now_ns();
      std::vector<std::optional<core::QueryResponse>> answers(n);
      for (std::size_t i = 0; i < n; ++i) {
        Scope span(tracer, SpanKind::kOperatorTake, base + i + 1);
        answers[i] = op.take_response(ids[i]);
      }
      query.stop();
      for (std::size_t i = 0; i < n; ++i) {
        ++ep.reads_issued;
        ep.latency_us.push_back(static_cast<double>(drained - issued_at[i]) * 1e-3);
        const auto& a = answers[i];
        if (ids[i] == 0 || !a || (a->flags & core::kResponseGatewayTimeout) != 0) {
          continue;
        }
        ++ep.reads_answered;
        if (a->outcome != core::QueryOutcome::kFound) continue;
        auto ids_hops = telemetry::IntStack::decode_switch_ids(a->value);
        for (auto& id : ids_hops) id -= 1;  // wire id → topology id
        const bool match = ids_hops == flows_[base + i].path;
        checks.require(match, "fabric_int: a found path differs from FatTree::path");
        if (match) ++ep.reads_correct;
      }
    }
    checks.require(op.pending() == 0 && gw.inflight() == 0,
                   "fabric_int: reads left pending after the drain");

    if (tracer.enabled()) {
      const auto t = tracer.totals();
      const auto k = [](SpanKind s) { return static_cast<int>(s); };
      const double packets = static_cast<double>(n_flows_ * kPackets);
      const double ex = static_cast<double>(executed);
      ep.layer["telemetry.send_flow_ns_per_packet"] =
          t.total_ns[k(SpanKind::kSendFlow)] / packets;
      ep.layer["net.run_ns_per_report"] =
          ex > 0 ? t.self_ns[k(SpanKind::kNetRunIngest)] / ex : 0.0;
      ep.layer["net.deliveries_per_report"] =
          ex > 0 ? static_cast<double>(delivered_after_ingest) / ex : 0.0;
      ep.layer["net.monitoring_drop_ratio"] =
          static_cast<double>(mon_dropped) /
          static_cast<double>(std::max<std::uint64_t>(st.reports_emitted, 1));
      ep.layer["rdma.executed_ratio"] =
          frames > 0 ? ex / static_cast<double>(frames) : 0.0;
      ep.layer["rdma.rejects_total"] = static_cast<double>(rejects);
      for (const auto& [name, v] : reasons) ep.layer[name] = v;
      ep.layer["core.operator_query_ns"] =
          t.total_ns[k(SpanKind::kOperatorQuery)] /
          static_cast<double>(std::max<std::uint64_t>(t.count[k(SpanKind::kOperatorQuery)], 1));
      put_gateway_stats(ep, gw, op.timeouts());
    }
    return ep;
  }

 private:
  static constexpr std::uint32_t kPackets = 2;
  static constexpr std::uint32_t kWaveFlows = 256;
  static constexpr std::uint64_t kWaveGapNs = 40'000;
  static constexpr std::size_t kRound = 256;

  std::uint32_t k_ = 8;
  std::uint64_t n_flows_ = 0;
  telemetry::WireFabricConfig cfg_;
  std::vector<FlowInput> flows_;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_int(const Options& opt) {
  return std::make_unique<FabricInt>(opt);
}

}  // namespace perfbench
