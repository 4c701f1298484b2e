// Integration: the complete DART data path on real wire bytes —
// switch pipeline → RoCEv2 frames → simulated RNIC → store memory → query —
// plus the equivalence of the simulation write path and the RDMA write path.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/cluster.hpp"
#include "core/oracle.hpp"
#include "switchsim/dart_switch.hpp"
#include "telemetry/backends.hpp"

namespace dart {
namespace {

core::DartConfig config() {
  core::DartConfig cfg;
  cfg.n_slots = 1 << 14;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 20;
  cfg.master_seed = 0xE2E;
  return cfg;
}

std::span<const std::byte> bytes_of(const std::string& s) {
  return std::as_bytes(std::span{s.data(), s.size()});
}

TEST(EndToEnd, SwitchFramesAndLocalWritesProduceIdenticalMemory) {
  // Path A: local simulation writes. Path B: a switch pipeline's RoCEv2
  // frames through the RNIC. The collector memory must end up identical —
  // this is what lets the Monte-Carlo benches stand in for the full stack.
  core::CollectorCluster direct(config(), 1);
  core::CollectorCluster rdma(config(), 1);

  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = config();
  sc.mac = {2, 0, 0, 0, 0, 1};
  sc.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  sc.write_mode = core::WriteMode::kAllSlots;
  switchsim::DartSwitchPipeline sw(sc);
  sw.load_collector(rdma.directory()[0]);

  for (int i = 0; i < 300; ++i) {
    const std::string key = "flow-" + std::to_string(i);
    std::vector<std::byte> value(20, static_cast<std::byte>(i & 0xFF));
    direct.write(bytes_of(key), value);
    for (const auto& frame : sw.on_telemetry(bytes_of(key), value)) {
      ASSERT_TRUE(rdma.collector(0).rnic().process_frame(frame).has_value());
    }
  }

  const auto a = direct.collector(0).store().memory();
  const auto b = rdma.collector(0).store().memory();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size()));
}

TEST(EndToEnd, CollectorCpuNeverTouchesIngest) {
  // The paper's headline property, asserted structurally: after ingesting
  // reports via the RNIC, the collector-side DartStore has performed zero
  // writes of its own (writes_performed counts CPU-path writes only).
  core::CollectorCluster cluster(config(), 1);
  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = config();
  sc.write_mode = core::WriteMode::kAllSlots;
  switchsim::DartSwitchPipeline sw(sc);
  sw.load_collector(cluster.directory()[0]);

  const std::string key = "zero-cpu";
  std::vector<std::byte> value(20, std::byte{9});
  for (const auto& frame : sw.on_telemetry(bytes_of(key), value)) {
    ASSERT_TRUE(cluster.collector(0).rnic().process_frame(frame).has_value());
  }
  EXPECT_EQ(cluster.collector(0).store().writes_performed(), 0u);
  EXPECT_EQ(cluster.collector(0).ingest_counters().writes, 2u);
  // ...and the data is queryable anyway.
  EXPECT_EQ(cluster.query(bytes_of(key)).outcome, core::QueryOutcome::kFound);
}

TEST(EndToEnd, MultiSwitchMultiCollectorConvergence) {
  // 4 switches reporting disjoint keys into 2 collectors; every key must be
  // queryable at exactly its hash-owner.
  core::CollectorCluster cluster(config(), 2);
  std::vector<std::unique_ptr<switchsim::DartSwitchPipeline>> switches;
  for (int s = 0; s < 4; ++s) {
    switchsim::DartSwitchPipeline::Config sc;
    sc.dart = config();
    sc.mac = {2, 0, 0, 0, 0, static_cast<std::uint8_t>(s)};
    sc.ip = net::Ipv4Addr::from_octets(10, 255, 0, static_cast<std::uint8_t>(s));
    sc.rng_seed = 100 + s;
    sc.write_mode = core::WriteMode::kAllSlots;
    switches.push_back(std::make_unique<switchsim::DartSwitchPipeline>(sc));
    for (const auto& info : cluster.directory()) {
      switches.back()->load_collector(info);
    }
  }

  for (int i = 0; i < 200; ++i) {
    const std::string key = "msw-" + std::to_string(i);
    std::vector<std::byte> value(20, static_cast<std::byte>(i & 0xFF));
    auto& sw = *switches[i % 4];
    for (const auto& frame : sw.on_telemetry(bytes_of(key), value)) {
      const auto parsed = net::parse_udp_frame(frame);
      ASSERT_TRUE(parsed.has_value());
      // Deliver to whichever collector the frame addresses.
      for (const auto& info : cluster.directory()) {
        if (info.ip == parsed->ip.dst) {
          ASSERT_TRUE(cluster.collector(info.collector_id)
                          .rnic()
                          .process_frame(frame)
                          .has_value());
        }
      }
    }
  }

  int found = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "msw-" + std::to_string(i);
    const auto r = cluster.query(bytes_of(key));
    if (r.outcome == core::QueryOutcome::kFound) {
      EXPECT_EQ(static_cast<std::uint8_t>(r.value[0]), i & 0xFF);
      ++found;
    }
  }
  EXPECT_GE(found, 197);  // tiny load → near-perfect
}

TEST(EndToEnd, Table1BackendsThroughFullStack) {
  // Anomaly + failure events from a switch, ingested via RDMA, decoded by a
  // query client.
  core::DartConfig cfg = config();
  core::CollectorCluster cluster(cfg, 1);
  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = cfg;
  sc.write_mode = core::WriteMode::kAllSlots;
  switchsim::DartSwitchPipeline sw(sc);
  sw.load_collector(cluster.directory()[0]);

  telemetry::FiveTuple flow;
  flow.src_ip = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  flow.dst_ip = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  flow.src_port = 5555;
  flow.dst_port = 80;

  telemetry::FlowAnomalyEvent anomaly;
  anomaly.flow = flow;
  anomaly.kind = telemetry::AnomalyKind::kRttSpike;
  anomaly.timestamp_ns = 123456789;
  anomaly.magnitude = 40;
  const auto anomaly_rec = telemetry::make_anomaly_record(anomaly, 20);

  telemetry::NetworkFailureEvent failure;
  failure.failure_id = 88;
  failure.location = 12;
  failure.timestamp_ns = 555;
  failure.debug_code = 0xBEEF;
  const auto failure_rec = telemetry::make_failure_record(failure, 20);

  for (const auto* rec : {&anomaly_rec, &failure_rec}) {
    for (const auto& frame : sw.on_telemetry(rec->key, rec->value)) {
      ASSERT_TRUE(cluster.collector(0).rnic().process_frame(frame).has_value());
    }
  }

  const auto a = cluster.query(anomaly_rec.key);
  ASSERT_EQ(a.outcome, core::QueryOutcome::kFound);
  const auto decoded_a = telemetry::decode_anomaly_value(a.value);
  EXPECT_EQ(decoded_a.timestamp_ns, 123456789u);
  EXPECT_EQ(decoded_a.magnitude, 40u);

  const auto f = cluster.query(failure_rec.key);
  ASSERT_EQ(f.outcome, core::QueryOutcome::kFound);
  const auto decoded_f = telemetry::decode_failure_value(f.value);
  EXPECT_EQ(decoded_f.debug_code, 0xBEEFu);
}

TEST(EndToEnd, StochasticReReportsFillSlotsOverTime) {
  // §3.1: with single-write RDMA, DART "relies [on] multiple redundant
  // telemetry reports generated to fill all the N slots". Event re-reports
  // through the real pipeline must raise consensus-2 queryability.
  core::CollectorCluster cluster(config(), 1);
  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = config();
  sc.write_mode = core::WriteMode::kStochastic;
  sc.rng_seed = 77;
  switchsim::DartSwitchPipeline sw(sc);
  sw.load_collector(cluster.directory()[0]);

  const std::string key = "re-reported";
  std::vector<std::byte> value(20, std::byte{5});
  // 10 re-reports: P(both slots hit) ≈ 1 - 2·(1/2)^10 ≈ 0.998; seed-pinned.
  for (int r = 0; r < 10; ++r) {
    for (const auto& frame : sw.on_telemetry(bytes_of(key), value)) {
      ASSERT_TRUE(cluster.collector(0).rnic().process_frame(frame).has_value());
    }
  }
  const auto r2 =
      cluster.query(bytes_of(key), core::ReturnPolicy::kConsensusTwo);
  EXPECT_EQ(r2.outcome, core::QueryOutcome::kFound);
}

}  // namespace
}  // namespace dart
