// INT path tracing on a fat tree — the paper's running example (§1, §5.2).
//
// A k=8 fat tree of packet-forwarding switches (WireFabric) carries one
// packet of each flow between random hosts; in-band INT accumulates per-hop
// switch ids in the packet; the egress edge switch (INT sink) reports each
// flow's path to a DART collector cluster as RoCEv2 frames over the
// monitoring underlay, which drops 1% of them. An operator then
// investigates: which path did flow X take, and which flows crossed a given
// core switch (found by querying flows and filtering — DART is a key-value
// store, so inverse queries enumerate candidate keys, as the paper's
// operators do with flow lists from other sources).
//
// Build & run:  ./build/examples/int_fat_tree
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "telemetry/wire_fabric.hpp"
#include "telemetry/workload.hpp"

int main() {
  using namespace dart;
  using namespace dart::telemetry;

  WireFabricConfig config;
  config.fat_tree_k = 8;              // 80 switches, 128 hosts
  config.dart.n_slots = 1 << 16;
  config.dart.n_addresses = 2;
  config.dart.value_bytes = 20;       // 5 hops × 32-bit switch ids
  config.n_collectors = 4;            // sharded collection
  config.report_loss_rate = 0.01;     // 1% of report frames dropped
  config.switch_write_mode = core::WriteMode::kAllSlots;
  config.seed = 2026;

  WireFabric fabric(config);
  const auto& topo = fabric.topology();
  std::printf("Fat tree: k=%u, %u switches, %u hosts; %u collectors\n",
              topo.k(), topo.n_switches(), topo.n_hosts(),
              fabric.cluster().size());

  // Trace 20K flows: one packet each, then drain the fabric.
  FlowGenerator gen(topo, 7);
  std::vector<FlowEndpoints> flows;
  for (int i = 0; i < 20'000; ++i) {
    flows.push_back(gen.next_flow());
    fabric.send_flow(flows.back().tuple, flows.back().src_host);
  }
  fabric.run();
  // Reports lost: frames the monitoring links (switch → collector) dropped.
  std::uint64_t lost = 0;
  for (std::uint32_t s = 0; s < fabric.n_switches(); ++s) {
    for (std::uint32_t c = 0; c < fabric.n_collectors(); ++c) {
      const auto link = fabric.monitoring_link(s, c);
      lost += fabric.simulator().link_stats(link).dropped;
    }
  }
  const auto stats = fabric.stats();
  std::printf("Traced %llu flows; %llu reports emitted, %llu lost (%.2f%%)\n",
              static_cast<unsigned long long>(stats.int_sinks),
              static_cast<unsigned long long>(stats.reports_emitted),
              static_cast<unsigned long long>(lost),
              100.0 * static_cast<double>(lost) /
                  static_cast<double>(stats.reports_emitted));

  // Operator query #1: the path of one specific flow.
  const auto& probe = flows[12'345];
  const auto path = fabric.query_path(probe.tuple);
  std::printf("\nPath of %s:\n  ", probe.tuple.str().c_str());
  if (path) {
    for (const auto sw : *path) {
      std::printf("%s ", topo.switch_name(sw).c_str());
    }
    std::printf("\n");
  } else {
    std::printf("(empty return — report lost or aged out)\n");
  }

  // Operator query #2: troubleshoot core-0 — which recent flows crossed it?
  const std::uint32_t suspect_core = topo.core_id(0);
  int crossed = 0, queried_ok = 0;
  for (const auto& f : flows) {
    const auto p = fabric.query_path(f.tuple);
    if (!p) continue;
    ++queried_ok;
    for (const auto sw : *p) {
      if (sw == suspect_core) {
        ++crossed;
        break;
      }
    }
  }
  std::printf(
      "\nTroubleshooting %s: %d of %d queryable flows crossed it.\n",
      topo.switch_name(suspect_core).c_str(), crossed, queried_ok);

  // Coverage report: queryability vs what the theory promises at this load.
  const double queryability =
      static_cast<double>(queried_ok) / static_cast<double>(flows.size());
  std::printf("Overall queryability: %.2f%% of %zu flows (load α = %.3f)\n",
              100.0 * queryability, flows.size(),
              static_cast<double>(flows.size()) * config.dart.n_addresses /
                  (config.dart.n_slots * 4.0));

  // Tier histogram of queried paths (sanity: 5-hop inter-pod dominates).
  std::map<std::size_t, int> by_len;
  for (const auto& f : flows) {
    const auto p = fabric.query_path(f.tuple);
    if (p) ++by_len[p->size()];
  }
  std::printf("Path length mix:");
  for (const auto& [len, count] : by_len) {
    std::printf("  %zu-hop: %d", len, count);
  }
  std::printf("\n");
  return 0;
}
