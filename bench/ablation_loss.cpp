// Ablation: report loss robustness (§3.1's motivation for N-way redundancy
// without switch-side retransmission state). Runs the INT fat tree of
// WireFabric — packet-forwarding switches, RoCEv2 report frames, Bernoulli
// loss per frame on every switch→collector monitoring link, simulated
// RNICs — across loss rates and redundancy levels.
//
// After each run the fabric's ledger must balance, or the bench exits
// non-zero naming the equality that failed: every report frame emitted was
// delivered or dropped on the monitoring underlay; every delivered frame
// was executed by an RNIC, so no PSN or validation reject passes for loss;
// and every data packet reached its host.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "telemetry/wire_fabric.hpp"
#include "telemetry/workload.hpp"

namespace {

using namespace dart;
using namespace dart::telemetry;

void require(bool ok, const char* equality, double loss, std::uint32_t n) {
  if (ok) return;
  std::fprintf(stderr, "ablation_loss: ledger broken at loss=%g N=%u: %s\n",
               loss, n, equality);
  std::exit(1);
}

double run(double loss, std::uint32_t n, std::uint64_t flows) {
  WireFabricConfig cfg;
  cfg.fat_tree_k = 8;
  cfg.dart.n_slots = 1 << 17;
  cfg.dart.n_addresses = n;
  cfg.dart.value_bytes = 20;
  cfg.dart.master_seed = 0x1055A;
  cfg.n_collectors = 2;
  cfg.switch_write_mode = core::WriteMode::kAllSlots;
  cfg.report_loss_rate = loss;
  cfg.seed = 23;
  WireFabric fabric(cfg);
  FlowGenerator gen(fabric.topology(), 31);

  std::vector<FlowEndpoints> flows_sent;
  flows_sent.reserve(flows);
  for (std::uint64_t i = 0; i < flows; ++i) {
    flows_sent.push_back(gen.next_flow());
    fabric.send_flow(flows_sent.back().tuple, flows_sent.back().src_host);
  }
  fabric.run();

  std::uint64_t delivered = 0, dropped = 0;
  for (std::uint32_t s = 0; s < fabric.n_switches(); ++s) {
    for (std::uint32_t c = 0; c < fabric.n_collectors(); ++c) {
      const auto& ls =
          fabric.simulator().link_stats(fabric.monitoring_link(s, c));
      delivered += ls.delivered;
      dropped += ls.dropped;
    }
  }
  std::uint64_t frames = 0, executed = 0;
  for (std::uint32_t c = 0; c < fabric.n_collectors(); ++c) {
    const auto& rc = fabric.cluster().collector(c).ingest_counters();
    frames += rc.frames;
    executed += rc.executed;
  }
  const auto st = fabric.stats();
  require(st.reports_emitted == delivered + dropped,
          "report frames emitted = monitoring delivered + dropped", loss, n);
  require(frames == executed && executed == delivered,
          "RNIC frames = executed = monitoring delivered", loss, n);
  require(st.host_packets_received == flows,
          "data packets received = flows sent", loss, n);

  std::uint64_t found = 0;
  for (const auto& f : flows_sent) {
    if (fabric.query_path(f.tuple).has_value()) ++found;
  }
  return static_cast<double>(found) / static_cast<double>(flows);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Ablation — queryability under switch→collector report loss",
      "switches keep no retransmission state; N redundant reports make a key "
      "survive unless ALL its reports are lost (§3.1)");

  const auto flows = bench::flag_u64(argc, argv, "flows", 4'000);

  Table t({"loss rate", "N=1", "N=2", "N=4", "1-p (theory N=1)",
           "1-p² (theory N=2)", "1-p⁴ (theory N=4)"});
  for (const double loss : {0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    t.row({fmt_percent(loss, 0), fmt_percent(run(loss, 1, flows), 1),
           fmt_percent(run(loss, 2, flows), 1),
           fmt_percent(run(loss, 4, flows), 1),
           fmt_percent(1.0 - loss, 1),
           fmt_percent(1.0 - loss * loss, 1),
           fmt_percent(1.0 - loss * loss * loss * loss, 1)});
  }
  t.print(std::cout);

  std::printf(
      "\nTakeaway: measured queryability tracks 1-p^N (loss dominates; slot\n"
      "collisions are negligible at this load). Redundancy bought for\n"
      "collision robustness doubles as loss robustness, with zero switch\n"
      "state — no retransmission, no acks.\n");
  return 0;
}
