// Tests for the end-to-end INT fabric, driven the way the loss ablation and
// the int_fat_tree example drive it: generated flows, one send_flow per flow
// from its source host, one run(), then query_path — the paper's running
// example at test scale, on WireFabric. In-band tracing, postcards, loss,
// and path queryability.
#include "telemetry/wire_fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/hash.hpp"
#include "telemetry/workload.hpp"

namespace dart::telemetry {
namespace {

WireFabricConfig fabric_config(std::uint32_t collectors = 1,
                               double loss = 0.0) {
  WireFabricConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.dart.n_slots = 1 << 14;
  cfg.dart.n_addresses = 2;
  cfg.dart.checksum_bits = 32;
  cfg.dart.value_bytes = 20;
  cfg.dart.master_seed = 0xFAB;
  cfg.n_collectors = collectors;
  cfg.switch_write_mode = core::WriteMode::kAllSlots;
  cfg.report_loss_rate = loss;
  cfg.seed = 9;
  return cfg;
}

// Sends one packet of each of `n` generated flows and drains the fabric.
std::vector<FlowEndpoints> trace_flows(WireFabric& fabric, int n) {
  FlowGenerator gen(fabric.topology(), 4);
  std::vector<FlowEndpoints> flows;
  for (int i = 0; i < n; ++i) {
    flows.push_back(gen.next_flow());
    fabric.send_flow(flows.back().tuple, flows.back().src_host);
  }
  fabric.run();
  return flows;
}

// The switches a flow crosses: FatTree::path under the fabric's ECMP hash.
std::vector<std::uint32_t> routed_path(const switchsim::FatTree& topo,
                                       const FlowEndpoints& flow) {
  const auto key = flow.tuple.key_bytes();
  return topo.path(flow.src_host, flow.dst_host, xxhash64(key, 0xECB9));
}

// Report frames on the monitoring underlay, summed over every
// switch → collector link.
net::LinkStats monitoring_totals(WireFabric& fabric) {
  net::LinkStats total;
  for (std::uint32_t s = 0; s < fabric.n_switches(); ++s) {
    for (std::uint32_t c = 0; c < fabric.n_collectors(); ++c) {
      const auto& ls =
          fabric.simulator().link_stats(fabric.monitoring_link(s, c));
      total.delivered += ls.delivered;
      total.dropped += ls.dropped;
    }
  }
  return total;
}

std::uint64_t rnic_writes(WireFabric& fabric) {
  std::uint64_t writes = 0;
  for (std::uint32_t c = 0; c < fabric.n_collectors(); ++c) {
    writes += fabric.cluster().collector(c).ingest_counters().writes;
  }
  return writes;
}

TEST(IntFabric, TraceThenQueryRecoversPath) {
  WireFabric fabric(fabric_config());
  const auto flow = trace_flows(fabric, 1).front();

  const auto queried = fabric.query_path(flow.tuple);
  ASSERT_TRUE(queried.has_value());
  EXPECT_EQ(*queried, routed_path(fabric.topology(), flow));
}

TEST(IntFabric, ReportsFlowThroughRealRnic) {
  WireFabric fabric(fabric_config());
  (void)trace_flows(fabric, 20);
  EXPECT_EQ(fabric.stats().int_sources, 20u);
  // kAllSlots: N=2 frames per flow, all delivered.
  EXPECT_EQ(fabric.stats().reports_emitted, 40u);
  EXPECT_EQ(monitoring_totals(fabric).delivered, 40u);
  EXPECT_EQ(rnic_writes(fabric), 40u);
}

TEST(IntFabric, ManyFlowsHighQueryabilityAtLowLoad) {
  WireFabric fabric(fabric_config());
  const auto flows = trace_flows(fabric, 500);
  int correct = 0;
  for (const auto& f : flows) {
    const auto q = fabric.query_path(f.tuple);
    if (q.has_value() && *q == routed_path(fabric.topology(), f)) ++correct;
  }
  // α = 500/16384 ≈ 0.03 → near-perfect queryability.
  EXPECT_GE(correct, 490);
}

TEST(IntFabric, PathsMatchTopologyRouting) {
  WireFabric fabric(fabric_config());
  const auto& topo = fabric.topology();
  for (const auto& flow : trace_flows(fabric, 50)) {
    const auto path = fabric.query_path(flow.tuple);
    ASSERT_TRUE(path.has_value()) << flow.tuple.str();
    ASSERT_TRUE(path->size() == 1 || path->size() == 3 || path->size() == 5);
    EXPECT_EQ(path->front(), topo.host_edge(flow.src_host));
    EXPECT_EQ(path->back(), topo.host_edge(flow.dst_host));
  }
}

TEST(IntFabric, MultiCollectorSharding) {
  WireFabric fabric(fabric_config(/*collectors=*/4));
  const auto flows = trace_flows(fabric, 200);
  // Every collector's RNIC executed writes.
  int active = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    if (fabric.cluster().collector(c).ingest_counters().writes > 0) ++active;
  }
  EXPECT_EQ(active, 4);
  // And queries still resolve (routing agrees with reporting).
  int found = 0;
  for (const auto& f : flows) {
    if (fabric.query_path(f.tuple).has_value()) ++found;
  }
  EXPECT_GE(found, 195);
}

TEST(IntFabric, LossReducesDeliveryButRedundancySaves) {
  WireFabric fabric(fabric_config(1, /*loss=*/0.3));
  const auto flows = trace_flows(fabric, 500);
  EXPECT_GT(monitoring_totals(fabric).dropped, 0u);
  int found = 0;
  for (const auto& f : flows) {
    if (fabric.query_path(f.tuple).has_value()) ++found;
  }
  // Each flow needs ≥1 of its 2 reports delivered: P ≈ 1 - 0.3² = 0.91.
  EXPECT_NEAR(static_cast<double>(found) / 500.0, 0.91, 0.05);
}

TEST(IntFabric, PostcardModeQueriesPerSwitch) {
  auto cfg = fabric_config();
  cfg.postcards = true;
  WireFabric fabric(cfg);
  const auto flow = trace_flows(fabric, 1).front();
  const auto path = routed_path(fabric.topology(), flow);
  for (const auto sw : path) {
    const auto hop = fabric.query_postcard(sw, flow.tuple);
    ASSERT_TRUE(hop.has_value()) << "switch " << sw;
    EXPECT_EQ(hop->switch_id, sw + 1);
  }
  // A switch off the path has no postcard.
  std::uint32_t off_path = 0;
  while (std::find(path.begin(), path.end(), off_path) != path.end()) {
    ++off_path;
  }
  EXPECT_FALSE(fabric.query_postcard(off_path, flow.tuple).has_value());
}

// Switches go on the wire as topology id + 1, so switch 0 is never written
// as the INT stack's zero padding: a path through it decodes whole, and its
// postcard carries wire id 1.
TEST(IntFabric, IntIdMappingAvoidsZero) {
  auto cfg = fabric_config();
  cfg.postcards = true;
  WireFabric fabric(cfg);
  const auto& topo = fabric.topology();
  ASSERT_EQ(topo.host_edge(0), 0u);
  FlowEndpoints flow;
  flow.src_host = 0;
  flow.dst_host = topo.n_hosts() - 1;
  flow.tuple.src_ip = topo.host_ip(flow.src_host);
  flow.tuple.dst_ip = topo.host_ip(flow.dst_host);
  flow.tuple.src_port = 50000;
  flow.tuple.dst_port = 8080;
  flow.tuple.protocol = 17;
  fabric.send_flow(flow.tuple, flow.src_host);
  fabric.run();

  const auto path = fabric.query_path(flow.tuple);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, routed_path(topo, flow));
  EXPECT_EQ(path->front(), 0u);
  const auto hop = fabric.query_postcard(0, flow.tuple);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->switch_id, 1u);
}

TEST(IntFabric, StochasticModeDeliversOneReportPerFlow) {
  auto cfg = fabric_config();
  cfg.switch_write_mode = core::WriteMode::kStochastic;
  WireFabric fabric(cfg);
  (void)trace_flows(fabric, 10);
  EXPECT_EQ(fabric.stats().reports_emitted, 10u);
  EXPECT_EQ(rnic_writes(fabric), 10u);
}

}  // namespace
}  // namespace dart::telemetry
