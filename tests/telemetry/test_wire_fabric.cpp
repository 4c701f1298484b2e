// Tests for the packet-forwarding fat-tree fabric with wire-level INT:
// delivery, routing equivalence with FatTree::path, INT accounting, and the
// DART report path over the monitoring underlay.
#include "telemetry/wire_fabric.hpp"

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "telemetry/workload.hpp"

namespace dart::telemetry {
namespace {

WireFabricConfig config(std::uint32_t k = 4, double loss = 0.0) {
  WireFabricConfig cfg;
  cfg.fat_tree_k = k;
  cfg.dart.n_slots = 1 << 14;
  cfg.dart.n_addresses = 2;
  cfg.dart.value_bytes = 20;
  cfg.dart.master_seed = 0x31BE;
  cfg.n_collectors = 1;
  cfg.report_loss_rate = loss;
  cfg.seed = 3;
  return cfg;
}

FiveTuple make_flow(const switchsim::FatTree& topo, std::uint32_t src,
                    std::uint32_t dst, std::uint16_t sport = 50000) {
  FiveTuple t;
  t.src_ip = topo.host_ip(src);
  t.dst_ip = topo.host_ip(dst);
  t.src_port = sport;
  t.dst_port = 8080;
  t.protocol = 17;
  return t;
}

TEST(WireFabric, DeliversPacketToDestinationHost) {
  WireFabric fabric(config());
  const auto flow = make_flow(fabric.topology(), 0, 15);
  fabric.send_flow(flow, 0, 3);
  fabric.run();
  EXPECT_EQ(fabric.host_received(15), 3u);
  EXPECT_EQ(fabric.stats().host_packets_sent, 3u);
  EXPECT_EQ(fabric.stats().host_packets_received, 3u);
}

// The INT source is the edge of the packet's source host, whatever the
// port: a host's own packet to the INT port is traced like any other.
TEST(WireFabric, IntSourceAndSinkFireOncePerPacket) {
  for (const auto& [port, packets] :
       {std::pair<std::uint16_t, std::uint32_t>{8080, 5},
        std::pair<std::uint16_t, std::uint32_t>{kIntUdpPort, 1}}) {
    SCOPED_TRACE(port);
    WireFabric fabric(config());
    const auto& topo = fabric.topology();
    auto flow = make_flow(topo, 0, 15);
    flow.dst_port = port;
    fabric.send_flow(flow, 0, packets);
    fabric.run();
    const auto s = fabric.stats();
    EXPECT_EQ(s.int_sources, packets);
    EXPECT_EQ(s.int_sinks, packets);
    // 5-hop path, 1 word/hop: shim(4)+md(8)+5*4 = 32 B per packet.
    EXPECT_EQ(s.int_overhead_bytes, packets * 32u);
    EXPECT_EQ(fabric.host_received(15), packets);

    const auto recorded = fabric.query_path(flow);
    ASSERT_TRUE(recorded.has_value());
    const auto key = flow.key_bytes();
    EXPECT_EQ(*recorded, topo.path(0, 15, xxhash64(key, 0xECB9)));
  }
}

TEST(WireFabric, RecordedPathMatchesFatTreeEcmp) {
  WireFabric fabric(config(8));
  const auto& topo = fabric.topology();
  FlowGenerator gen(topo, 11);
  for (int i = 0; i < 40; ++i) {
    const auto fe = gen.next_flow();
    fabric.send_flow(fe.tuple, fe.src_host, 1);
    fabric.run();

    const auto recorded = fabric.query_path(fe.tuple);
    ASSERT_TRUE(recorded.has_value()) << "flow " << i;

    const auto key = fe.tuple.key_bytes();
    const auto expected =
        topo.path(fe.src_host, fe.dst_host, xxhash64(key, 0xECB9));
    EXPECT_EQ(*recorded, expected) << fe.tuple.str();
  }
}

TEST(WireFabric, IntraRackFlowIsOneHop) {
  WireFabric fabric(config());
  // Hosts 0 and 1 share edge 0 in a k=4 tree.
  const auto flow = make_flow(fabric.topology(), 0, 1);
  fabric.send_flow(flow, 0, 1);
  fabric.run();
  EXPECT_EQ(fabric.host_received(1), 1u);
  const auto path = fabric.query_path(flow);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 1u);
  EXPECT_EQ((*path)[0], fabric.topology().host_edge(0));
}

TEST(WireFabric, InnerPayloadSurvivesIntRoundTrip) {
  WireFabric fabric(config());
  const auto flow = make_flow(fabric.topology(), 2, 13);
  fabric.send_flow(flow, 2, 1, /*payload_bytes=*/123);
  fabric.run();
  EXPECT_EQ(fabric.host_received(13), 1u);
  // INT overhead accounted and stripped: 5 hops → 32 B, payload unchanged on
  // delivery (host counts only frames addressed to its IP — decap happened).
  EXPECT_GT(fabric.stats().int_overhead_bytes, 0u);
}

TEST(WireFabric, ReportsReachCollectorThroughUnderlay) {
  WireFabric fabric(config());
  const auto flow = make_flow(fabric.topology(), 0, 15);
  fabric.send_flow(flow, 0, 1);
  fabric.run();
  const auto& counters = fabric.cluster().collector(0).ingest_counters();
  EXPECT_EQ(counters.writes, 2u);  // N = 2 report frames
  EXPECT_EQ(fabric.stats().reports_emitted, 2u);
  // Zero CPU writes at the collector.
  EXPECT_EQ(fabric.cluster().collector(0).store().writes_performed(), 0u);
}

TEST(WireFabric, ManyFlowsQueryable) {
  WireFabric fabric(config(4));
  FlowGenerator gen(fabric.topology(), 17);
  std::vector<FlowEndpoints> flows;
  for (int i = 0; i < 300; ++i) {
    flows.push_back(gen.next_flow());
    fabric.send_flow(flows.back().tuple, flows.back().src_host, 1);
  }
  fabric.run();
  int found = 0;
  for (const auto& fe : flows) {
    if (fabric.query_path(fe.tuple).has_value()) ++found;
  }
  EXPECT_GE(found, 296);  // α ≈ 0.037 → near-perfect
}

TEST(WireFabric, ReportLossOnUnderlayToleratedByRedundancy) {
  WireFabric fabric(config(4, /*loss=*/0.3));
  FlowGenerator gen(fabric.topology(), 19);
  std::vector<FlowEndpoints> flows;
  for (int i = 0; i < 600; ++i) {
    flows.push_back(gen.next_flow());
    fabric.send_flow(flows.back().tuple, flows.back().src_host, 1);
  }
  fabric.run();
  int found = 0;
  for (const auto& fe : flows) {
    if (fabric.query_path(fe.tuple).has_value()) ++found;
  }
  // Loss applies only to report frames: success ≈ 1 - 0.3² = 0.91.
  EXPECT_NEAR(static_cast<double>(found) / 600.0, 0.91, 0.05);
  // Data delivery unaffected.
  EXPECT_EQ(fabric.stats().host_packets_received, 600u);
}

TEST(WireFabric, HopMetadataRichInstructions) {
  auto cfg = config();
  cfg.int_instructions = static_cast<std::uint16_t>(
      kIntInsSwitchId | kIntInsQueueDepth | kIntInsHopLatency);
  WireFabric fabric(cfg);
  const auto flow = make_flow(fabric.topology(), 0, 15);
  fabric.send_flow(flow, 0, 1);
  fabric.run();
  // 5 hops × 3 words × 4 B + 12 B headers.
  EXPECT_EQ(fabric.stats().int_overhead_bytes, 5u * 12u + 12u);
  // Path still recorded (value carries switch ids only).
  EXPECT_TRUE(fabric.query_path(flow).has_value());
}

// The fabric resolves every host's address back to that host: a packet to
// host_ip(h) reaches host h, and one to an address outside the scheme
// reaches no host.
TEST(WireFabric, HostOfIpInverse) {
  WireFabric fabric(config());
  const auto& topo = fabric.topology();
  const std::uint32_t n = topo.n_hosts();
  for (std::uint32_t h = 0; h < n; ++h) {
    const std::uint32_t src = (h + 1) % n;
    fabric.send_flow(make_flow(topo, src, h), src, 1);
  }
  auto stray = make_flow(topo, 0, 15);
  stray.dst_ip = net::Ipv4Addr::from_octets(192, 168, 1, 1);
  fabric.send_flow(stray, 0, 1);
  fabric.run();
  for (std::uint32_t h = 0; h < n; ++h) {
    EXPECT_EQ(fabric.host_received(h), 1u) << "host " << h;
  }
  EXPECT_EQ(fabric.stats().routing_drops, 1u);
}

// A destination no host of the fabric has is dropped and counted at the
// first switch instead of being routed: in a k=4 tree, 10.9.9.9 names pod
// 9 and 10.4.0.2 pod 4, past the directory of switches and hosts.
TEST(WireFabric, FrameForNoHostIsDroppedAndCounted) {
  WireFabric fabric(config());
  const auto& topo = fabric.topology();
  for (const auto dst : {net::Ipv4Addr::from_octets(10, 9, 9, 9),
                         net::Ipv4Addr::from_octets(10, 4, 0, 2)}) {
    auto flow = make_flow(topo, 0, 15);
    flow.dst_ip = dst;
    fabric.send_flow(flow, 0, 1);
  }
  fabric.run();
  const auto s = fabric.stats();
  EXPECT_EQ(s.host_packets_sent, 2u);
  EXPECT_EQ(s.routing_drops, 2u);
  EXPECT_EQ(s.host_packets_received, 0u);
  for (std::uint32_t h = 0; h < topo.n_hosts(); ++h) {
    EXPECT_EQ(fabric.host_received(h), 0u) << "host " << h;
  }
  EXPECT_EQ(s.reports_emitted, 0u);
}

// A query whose source address names the gateway itself, or a peer service
// the answering service has no link to, gets a reply the simulator cannot
// route: it is dropped and counted instead of sent over a missing link.
TEST(WireFabric, ReplyWithNoLinkIsDroppedAndCounted) {
  auto cfg = config();
  cfg.n_collectors = 2;
  WireFabric fabric(cfg);
  auto& gateway = fabric.attach_gateway();
  auto& sim = fabric.simulator();
  obs::MetricRegistry registry;
  fabric.register_metrics(registry);
  const auto query = [](net::Ipv4Addr src, net::Ipv4Addr dst) {
    core::QueryRequest request;
    request.request_id = 7;
    request.key = std::vector<std::byte>(8, std::byte{0x42});
    net::UdpFrameSpec spec;
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.src_port = core::kDartQueryUdpPort;
    spec.dst_port = core::kDartQueryUdpPort;
    return net::Packet(
        net::build_udp_frame(spec, core::encode_query_request(request)));
  };
  sim.schedule(0, [&] {
    gateway.receive(query(net::Ipv4Addr::from_octets(10, 9, 2, 254),
                          net::Ipv4Addr::from_octets(10, 9, 2, 0)),
                    sim.now_ns());
    fabric.query_service(0)->receive(
        query(net::Ipv4Addr::from_octets(10, 0, 200, 1),
              net::Ipv4Addr::from_octets(10, 0, 200, 0)),
        sim.now_ns());
  });
  fabric.run();
  EXPECT_EQ(sim.total_unrouted(), 2u);
  EXPECT_EQ(registry.snapshot().value_of("dart_net_unrouted_total"), 2.0);
  EXPECT_EQ(gateway.upstream_sent(), 1u);  // the gateway's read went through
  EXPECT_EQ(gateway.inflight(), 0u);
  EXPECT_EQ(sim.total_dropped(), 0u);
  EXPECT_EQ(sim.total_queue_drops(), 0u);
  EXPECT_EQ(sim.total_partitioned(), 0u);
  EXPECT_EQ(fabric.stats().routing_drops, 0u);
}

TEST(WireFabric, ShapedLinksReportRealQueueDepths) {
  // Bandwidth-shaped links + a traffic burst between two hosts: INT's
  // queue-depth metadata must observe the real egress backlog.
  auto cfg = config();
  cfg.int_instructions = static_cast<std::uint16_t>(
      kIntInsSwitchId | kIntInsQueueDepth);
  cfg.data_link_shape = {.bandwidth_bps = 100'000'000, .queue_cap = 0};
  WireFabric fabric(cfg);
  const auto flow = make_flow(fabric.topology(), 0, 15);
  // 64 back-to-back packets: at 100 Mbps a ~100B frame serializes in ~8 µs,
  // so the burst builds a deep queue at the first hop.
  fabric.send_flow(flow, 0, 64);
  fabric.run();
  EXPECT_EQ(fabric.stats().host_packets_received, 64u);
  EXPECT_GT(fabric.stats().max_reported_queue_depth, 10u);

  // The same burst over ideal links reports all-zero queue depths.
  auto ideal_cfg = config();
  ideal_cfg.int_instructions = cfg.int_instructions;
  WireFabric ideal(ideal_cfg);
  ideal.send_flow(make_flow(ideal.topology(), 0, 15), 0, 64);
  ideal.run();
  EXPECT_EQ(ideal.stats().max_reported_queue_depth, 0u);
}

TEST(WireFabric, TailDropUnderSevereCongestion) {
  auto cfg = config();
  cfg.data_link_shape = {.bandwidth_bps = 10'000'000, .queue_cap = 8};
  WireFabric fabric(cfg);
  const auto flow = make_flow(fabric.topology(), 0, 15);
  fabric.send_flow(flow, 0, 200);
  fabric.run();
  // The 8-deep 10 Mbps host uplink cannot carry a 200-packet burst.
  EXPECT_LT(fabric.stats().host_packets_received, 200u);
  EXPECT_GT(fabric.stats().host_packets_received, 0u);
}

TEST(WireFabric, PostcardModeReportsPerSwitch) {
  auto cfg = config();
  cfg.postcards = true;
  cfg.postcard_detector = {.table_size = 1 << 14, .threshold = 0};
  WireFabric fabric(cfg);
  const auto flow = make_flow(fabric.topology(), 0, 15);
  fabric.send_flow(flow, 0, 1);
  fabric.run();

  // Every switch on the 5-hop path filed a postcard for this new flow.
  const auto path = fabric.query_path(flow);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 5u);
  for (const auto sw : *path) {
    const auto hop = fabric.query_postcard(sw, flow);
    ASSERT_TRUE(hop.has_value()) << "switch " << sw;
    EXPECT_EQ(hop->switch_id, sw + 1);
  }
  // Off-path switch: no postcard.
  std::uint32_t off_path = 0;
  while (std::find(path->begin(), path->end(), off_path) != path->end()) {
    ++off_path;
  }
  EXPECT_FALSE(fabric.query_postcard(off_path, flow).has_value());
  EXPECT_EQ(fabric.stats().postcard_reports, 5u);
}

TEST(WireFabric, PostcardEventFilterSuppressesStableFlows) {
  auto cfg = config();
  cfg.postcards = true;
  cfg.postcard_detector = {.table_size = 1 << 14, .threshold = 4};
  WireFabric fabric(cfg);
  const auto flow = make_flow(fabric.topology(), 0, 15);
  // 50 packets of a steady flow on ideal links (queue depth constant 0):
  // only the first packet's 5 hops report.
  fabric.send_flow(flow, 0, 50);
  fabric.run();
  EXPECT_EQ(fabric.stats().postcard_reports, 5u);
  EXPECT_EQ(fabric.stats().postcard_observations, 50u * 5u);
}

// Pins the simulator's event order on a congested fabric: 1 Gb/s shaped
// links, 1% monitoring loss, postcards and switch-id|queue-depth|hop-latency
// INT, so sampled queue depths land in collector memory. The partial
// run(until) steps stop mid-burst, where egress queues hold packets whose
// departures fall between events; an elephant burst overflows a host
// uplink's 256-packet queue. Everything the run leaves behind goes into one
// xxhash64 digest: collector memory, per-link stats, fabric stats, and the
// clock and every link's queue depth after each partial step. Any change to
// event order, queue accounting or INT bytes moves the digest.
TEST(WireFabric, SeededCongestedRunDigestIsPinned) {
  auto cfg = config(4, /*loss=*/0.01);
  cfg.n_collectors = 2;
  cfg.int_instructions = static_cast<std::uint16_t>(
      kIntInsSwitchId | kIntInsQueueDepth | kIntInsHopLatency);
  cfg.data_link_shape = {.bandwidth_bps = 1'000'000'000, .queue_cap = 256};
  cfg.postcards = true;
  cfg.postcard_detector = {.table_size = 1 << 12, .threshold = 1};
  WireFabric fabric(cfg);
  auto& sim = fabric.simulator();
  const auto& topo = fabric.topology();

  FlowGenerator gen(topo, 41);
  for (const std::uint64_t at : {0ull, 20'000ull, 45'000ull}) {
    sim.schedule(at, [&fabric, &gen] {
      for (std::uint32_t f = 0; f < 64; ++f) {
        const auto fe = gen.next_flow();
        fabric.send_flow(fe.tuple, fe.src_host, 6, 64 + 8 * (f % 5));
      }
    });
  }
  const auto elephant = make_flow(topo, 3, 12, 40000);
  sim.schedule(45'000, [&fabric, &elephant] {
    fabric.send_flow(elephant, 3, 300, 100);
  });

  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) { h = xxhash64_of(v, h); };
  const std::uint32_t n_nodes =
      fabric.n_collectors() + topo.n_switches() + topo.n_hosts();
  for (const std::uint64_t until :
       {3'500ull, 10'250ull, 21'000ull, 33'333ull, 46'100ull, 60'000ull,
        200'000ull}) {
    sim.run(until);
    mix(sim.now_ns());
    for (net::NodeId a = 0; a < n_nodes; ++a) {
      for (net::NodeId b = 0; b < n_nodes; ++b) {
        mix(sim.link_queue_depth(a, b));
      }
    }
  }
  fabric.run();
  mix(sim.now_ns());

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
        st.reports_emitted, std::uint64_t{st.max_reported_queue_depth},
        st.postcard_observations, st.postcard_reports}) {
    mix(v);
  }

  // The run must exercise what the digest pins.
  EXPECT_GT(st.max_reported_queue_depth, 10u);
  EXPECT_GT(sim.total_queue_drops(), 0u);
  EXPECT_GT(sim.total_dropped(), 0u);
  EXPECT_GT(st.postcard_reports, 0u);
  EXPECT_EQ(h, 0x9dffc395794936c1ull);
}

TEST(WireFabric, Figure2CompleteInOneSimulator) {
  // The whole paper picture in one event-driven simulation: hosts send
  // traffic, switches do INT + DART reporting to RNICs, and an operator
  // node issues UDP queries to collector-side query services.
  auto cfg = config();
  cfg.n_collectors = 2;
  WireFabric fabric(cfg);
  auto& op = fabric.attach_operator();

  FlowGenerator gen(fabric.topology(), 23);
  std::vector<FlowEndpoints> flows;
  for (int i = 0; i < 100; ++i) {
    flows.push_back(gen.next_flow());
    fabric.send_flow(flows.back().tuple, flows.back().src_host, 1);
  }
  // Queries can be injected while traffic drains — one event queue.
  std::vector<std::uint64_t> ids;
  for (const auto& fe : flows) {
    const auto key = fe.tuple.key_bytes();
    ids.push_back(op.query(std::vector<std::byte>(key.begin(), key.end())));
  }
  fabric.run();

  int found = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto resp = op.take_response(ids[i]);
    ASSERT_TRUE(resp.has_value()) << i;
    if (resp->outcome == core::QueryOutcome::kFound) {
      auto wire_ids = IntStack::decode_switch_ids(resp->value);
      ASSERT_FALSE(wire_ids.empty());
      ++found;
    }
  }
  // Management RTT (100 µs) exceeds fabric delivery (~10 µs), so reports
  // land before queries arrive: near-perfect hit rate at α ≈ 0.012.
  EXPECT_GE(found, 98);
  EXPECT_EQ(op.responses_received(), 100u);
  // Idempotent attach.
  EXPECT_EQ(&fabric.attach_operator(), &op);
}

}  // namespace
}  // namespace dart::telemetry
