// Behaviour lock for the packet-forwarding fabric. Each row of the table is
// one seeded WireFabric run: three waves of flows (and, where the row asks,
// an elephant burst, intra-rack flows, frames for no host or byte damage on
// every link), drained in partial steps and then in full. Everything the run
// leaves behind goes into one xxhash64 digest per row, computed the way
// WireFabric.SeededCongestedRunDigestIsPinned computes its own: after each
// partial step the clock, every link's queue depth and the delivered,
// dropped and queue-drop totals; after the full run the same totals, the
// memory of every collector, every link's stats and the fabric's stats.
//
// A change to event order, routing, queue accounting, INT bytes, report
// bytes or a parse verdict moves a digest; a moved digest is printed in hex.
// The rows use public API only, so the same file builds against any tree
// that has WireFabric.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "common/hash.hpp"
#include "telemetry/wire_fabric.hpp"
#include "telemetry/workload.hpp"

namespace dart::telemetry {
namespace {

struct Scenario {
  const char* name = "";
  std::uint32_t k = 4;
  std::uint16_t instructions = kIntInsSwitchId;
  std::uint8_t int_max_hops = 8;
  std::uint32_t value_bytes = 20;
  std::uint32_t n_collectors = 1;
  double report_loss = 0.0;
  // Shaped data links (1 Gb/s) with this egress queue cap; 0 = ideal links.
  std::uint32_t queue_cap = 0;
  bool shaped = false;
  bool postcards = false;
  bool elephant = false;    // 300 packets of one flow in the last wave
  bool intra_rack = false;  // every flow stays under one edge switch
  bool no_host = false;     // a third of the frames name no fabric host
  double corruption = 0.0;  // byte-damage rate on every link
  std::uint64_t seed = 1;
  std::uint64_t digest = 0;
};

constexpr std::uint16_t kThreeWords = static_cast<std::uint16_t>(
    kIntInsSwitchId | kIntInsQueueDepth | kIntInsHopLatency);

// The rows. Digests were pinned on the tree before the fixed-offset header
// code and must not move without a note in CHANGES.md.
const Scenario kScenarios[] = {
    {.name = "k4_switch_id", .seed = 11, .digest = 0x836c9df4416c6e71ull},
    {.name = "k8_switch_id", .k = 8, .seed = 12,
     .digest = 0xca32e935261b1178ull},
    {.name = "k4_three_words", .instructions = kThreeWords, .seed = 13,
     .digest = 0xbda6dc2ce3e754cfull},
    {.name = "k8_three_words_shaped", .k = 8, .instructions = kThreeWords,
     .shaped = true, .seed = 14, .digest = 0x25ccd2cd23cc4640ull},
    {.name = "k4_queue_depth_only", .instructions = kIntInsQueueDepth,
     .shaped = true, .seed = 15, .digest = 0x51c16a36fbcece88ull},
    {.name = "k4_shaped_tail_drops", .instructions = kThreeWords,
     .queue_cap = 16, .shaped = true, .elephant = true, .seed = 16,
     .digest = 0x92072fcad0db884dull},
    {.name = "k8_shaped_tail_drops", .k = 8, .queue_cap = 32, .shaped = true,
     .elephant = true, .seed = 17, .digest = 0x3ad7b6f0d009399bull},
    {.name = "k4_postcards", .instructions = kThreeWords, .postcards = true,
     .seed = 18, .digest = 0x5856dd96764588f7ull},
    {.name = "k8_postcards_shaped", .k = 8, .instructions = kThreeWords,
     .queue_cap = 64, .shaped = true, .postcards = true, .elephant = true,
     .seed = 19, .digest = 0xf4998f7a3493b577ull},
    {.name = "k4_int_max_hops_2", .int_max_hops = 2, .seed = 20,
     .digest = 0xe96695c3cfc7e332ull},
    {.name = "k4_int_max_hops_0", .int_max_hops = 0, .seed = 21,
     .digest = 0x6fd2ed29966c5f81ull},
    {.name = "k4_value_bytes_8", .value_bytes = 8, .seed = 22,
     .digest = 0x1c8fa9c538a11275ull},
    {.name = "k4_intra_rack", .instructions = kThreeWords, .intra_rack = true,
     .seed = 23, .digest = 0x6d831039a8c08168ull},
    {.name = "k4_report_loss_1pct", .n_collectors = 2, .report_loss = 0.01,
     .seed = 24, .digest = 0x7e31cbfeb164d952ull},
    {.name = "k4_corruption_every_link", .instructions = kThreeWords,
     .n_collectors = 2, .corruption = 0.05, .seed = 25,
     .digest = 0xabab5cb66b3c8cafull},
    {.name = "k4_frames_for_no_host", .no_host = true, .seed = 26,
     .digest = 0x9595a52ccc3f2ea0ull},
};

WireFabricConfig config_of(const Scenario& s) {
  WireFabricConfig cfg;
  cfg.fat_tree_k = s.k;
  cfg.dart.n_slots = 1 << 12;
  cfg.dart.n_addresses = 2;
  cfg.dart.value_bytes = s.value_bytes;
  cfg.dart.master_seed = 0x10CC;
  cfg.n_collectors = s.n_collectors;
  cfg.report_loss_rate = s.report_loss;
  cfg.int_max_hops = s.int_max_hops;
  cfg.int_instructions = s.instructions;
  if (s.shaped) {
    cfg.data_link_shape = {.bandwidth_bps = 1'000'000'000,
                           .queue_cap = s.queue_cap};
  }
  cfg.postcards = s.postcards;
  cfg.postcard_detector = {.table_size = 1 << 10, .threshold = 1};
  cfg.seed = s.seed;
  return cfg;
}

// A flow between two hosts under the same edge switch.
FlowEndpoints intra_rack_flow(const switchsim::FatTree& topo,
                              std::uint32_t f) {
  const std::uint32_t half = topo.k() / 2;
  FlowEndpoints fe;
  fe.src_host = (f * 7) % topo.n_hosts();
  fe.dst_host = fe.src_host - fe.src_host % half + (fe.src_host + 1) % half;
  fe.tuple.src_ip = topo.host_ip(fe.src_host);
  fe.tuple.dst_ip = topo.host_ip(fe.dst_host);
  fe.tuple.src_port = static_cast<std::uint16_t>(40000 + f);
  fe.tuple.dst_port = static_cast<std::uint16_t>(80 + f % 3);
  fe.tuple.protocol = f % 2 == 0 ? 17 : 6;
  return fe;
}

// Rewrites a third of the flows to name no fabric host: as destination (the
// source edge drops them) or as source (forwarded, but no edge is their
// INT source).
void strand(const switchsim::FatTree& topo, std::uint32_t f,
            FlowEndpoints& fe) {
  const auto pods = static_cast<std::uint8_t>(topo.k());
  const auto half = static_cast<std::uint8_t>(topo.k() / 2);
  const net::Ipv4Addr strays[] = {
      net::Ipv4Addr::from_octets(10, pods, 0, 2),      // pod past the tree
      net::Ipv4Addr::from_octets(10, 0, half, 2),      // edge past the pod
      net::Ipv4Addr::from_octets(10, 1, 0, 1),         // .1 wraps below .2
      net::Ipv4Addr::from_octets(10, 1, 1, 2 + half),  // index past the edge
      net::Ipv4Addr::from_octets(192, 168, 0, 2),      // not 10/8
  };
  switch (f % 6) {
    case 0:
      fe.tuple.dst_ip = strays[(f / 6) % 5];
      break;
    case 3:
      fe.tuple.src_ip = strays[(f / 6) % 5];
      break;
    default:
      break;
  }
}

std::uint64_t run_digest(const Scenario& s) {
  WireFabric fabric(config_of(s));
  auto& sim = fabric.simulator();
  const auto& topo = fabric.topology();
  if (s.corruption > 0.0) {
    for (net::LinkId l = 0; l < sim.n_links(); ++l) {
      sim.set_link_corruption(l, s.corruption);
    }
  }

  FlowGenerator gen(topo, s.seed * 31);
  std::uint32_t next = 0;
  for (const std::uint64_t at : {0ull, 20'000ull, 45'000ull}) {
    sim.schedule(at, [&fabric, &gen, &topo, &s, &next] {
      for (std::uint32_t i = 0; i < 48; ++i, ++next) {
        auto fe =
            s.intra_rack ? intra_rack_flow(topo, next) : gen.next_flow();
        if (s.no_host) strand(topo, next, fe);
        // Short frames put the INT headers in the back half, where link
        // damage lands.
        const std::size_t payload =
            s.corruption > 0.0 && next % 3 == 0 ? 0 : 64 + 8 * (next % 5);
        fabric.send_flow(fe.tuple, fe.src_host, 4, payload);
      }
    });
  }
  if (s.elephant) {
    sim.schedule(45'000, [&fabric, &topo] {
      FiveTuple t;
      t.src_ip = topo.host_ip(3);
      t.dst_ip = topo.host_ip(topo.n_hosts() - 2);
      t.src_port = 40000;
      t.dst_port = 9000;
      t.protocol = 6;
      fabric.send_flow(t, 3, 300, 100);
    });
  }

  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) { h = xxhash64_of(v, h); };
  const auto mix_totals = [&sim, &mix] {
    mix(sim.now_ns());
    mix(sim.total_delivered());
    mix(sim.total_dropped());
    mix(sim.total_queue_drops());
    mix(sim.total_corrupted());
    mix(sim.total_unrouted());
  };
  const std::uint32_t n_nodes =
      fabric.n_collectors() + topo.n_switches() + topo.n_hosts();
  for (const std::uint64_t until :
       {3'500ull, 10'250ull, 21'000ull, 33'333ull, 46'100ull, 60'000ull,
        200'000ull}) {
    sim.run(until);
    mix_totals();
    for (net::NodeId a = 0; a < n_nodes; ++a) {
      for (net::NodeId b = 0; b < n_nodes; ++b) {
        mix(sim.link_queue_depth(a, b));
      }
    }
  }
  fabric.run();
  mix_totals();

  for (std::uint32_t c = 0; c < fabric.n_collectors(); ++c) {
    h = xxhash64(fabric.cluster().collector(c).store().memory(), h);
  }
  for (net::LinkId l = 0; l < sim.n_links(); ++l) {
    const auto& ls = sim.link_stats(l);
    for (const std::uint64_t v :
         {ls.delivered, ls.dropped, ls.queue_drops, ls.partitioned,
          ls.corrupted, std::uint64_t{ls.max_queue}}) {
      mix(v);
    }
  }
  const auto st = fabric.stats();
  for (const std::uint64_t v :
       {st.host_packets_sent, st.host_packets_received, st.switch_hops,
        st.int_sources, st.int_sinks, st.int_overhead_bytes,
        st.reports_emitted, st.routing_drops,
        std::uint64_t{st.max_reported_queue_depth}, st.postcard_observations,
        st.postcard_reports}) {
    mix(v);
  }

  // Each row exercises what it is named for.
  EXPECT_GT(st.int_sinks, 0u);
  if (s.queue_cap != 0) {
    EXPECT_GT(sim.total_queue_drops(), 0u);
  }
  if (s.shaped && (s.instructions & kIntInsQueueDepth)) {
    EXPECT_GT(st.max_reported_queue_depth, 0u);
  }
  if (s.report_loss > 0.0) {
    EXPECT_GT(sim.total_dropped(), 0u);
  }
  if (s.postcards) {
    EXPECT_GT(st.postcard_reports, 0u);
  }
  if (s.corruption > 0.0) {
    EXPECT_GT(sim.total_corrupted(), 0u);
    EXPECT_GT(st.routing_drops, 0u);
  }
  if (s.no_host) {
    EXPECT_GT(st.routing_drops, 0u);
  }
  if (s.intra_rack) {
    EXPECT_EQ(st.switch_hops, st.host_packets_sent);
  }
  if (s.value_bytes < 20) {
    EXPECT_LT(st.reports_emitted, 2 * st.int_sinks);
  }
  return h;
}

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class WireFabricLock : public ::testing::TestWithParam<Scenario> {};

TEST_P(WireFabricLock, DigestIsPinned) {
  const Scenario& s = GetParam();
  const std::uint64_t h = run_digest(s);
  EXPECT_EQ(h, s.digest) << s.name << " digest 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, WireFabricLock, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dart::telemetry
