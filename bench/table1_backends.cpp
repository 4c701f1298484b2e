// Table 1: measurement techniques mapped onto DART's key-value collection
// structure — exercised END TO END: each backend's records are crafted by a
// DART switch pipeline as real RoCEv2 frames, ingested by the simulated RNIC
// into collector memory, and queried back. The table reports key/value
// geometry, ingest rate through the full frame path, and query success.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/cluster.hpp"
#include "switchsim/dart_switch.hpp"
#include "telemetry/backends.hpp"
#include "telemetry/workload.hpp"

namespace {

using namespace dart;
using namespace dart::core;
using namespace dart::telemetry;

struct BackendRow {
  const char* backend;
  const char* key_desc;
  const char* data_desc;
  std::size_t key_bytes;
  std::uint64_t delivered;
  std::uint64_t queried_ok;
  std::uint64_t queries;
  double seconds;
};

constexpr std::uint32_t kValueBytes = 20;

DartConfig config() {
  DartConfig cfg;
  cfg.n_slots = 1 << 16;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = kValueBytes;
  cfg.master_seed = 0x7AB1E;
  return cfg;
}

// Pushes `records` through switch → RNIC and queries them back.
template <typename MakeRecord>
BackendRow run_backend(const char* name, const char* key_desc,
                       const char* data_desc, std::uint64_t count,
                       MakeRecord&& make_record) {
  CollectorCluster cluster(config(), 2);
  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = config();
  sc.write_mode = WriteMode::kAllSlots;
  sc.rng_seed = 5;
  switchsim::DartSwitchPipeline sw(sc);
  for (const auto& info : cluster.directory()) sw.load_collector(info);

  std::vector<TelemetryRecord> records;
  records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    records.push_back(make_record(i));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t delivered = 0;
  for (const auto& rec : records) {
    for (const auto& frame : sw.on_telemetry(rec.key, rec.value)) {
      const auto parsed = net::parse_udp_frame(frame);
      for (const auto& info : cluster.directory()) {
        if (info.ip == parsed->ip.dst) {
          if (cluster.collector(info.collector_id)
                  .rnic()
                  .process_frame(frame)
                  .has_value()) {
            ++delivered;
          }
        }
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  std::uint64_t ok = 0;
  for (const auto& rec : records) {
    const auto r = cluster.query(rec.key);
    if (r.outcome == QueryOutcome::kFound && r.value == rec.value) ++ok;
  }

  BackendRow row{name,      key_desc,
                 data_desc, records.empty() ? 0 : records[0].key.size(),
                 delivered, ok,
                 count,     std::chrono::duration<double>(t1 - t0).count()};
  return row;
}

FiveTuple flow_i(std::uint64_t i) {
  FiveTuple t;
  t.src_ip = net::Ipv4Addr::from_octets(10, (i >> 8) & 0xFF, i & 0xFF, 1);
  t.dst_ip = net::Ipv4Addr::from_octets(10, 200, (i >> 4) & 0xFF, 2);
  t.src_port = static_cast<std::uint16_t>(49152 + i % 16000);
  t.dst_port = 443;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Table 1 — measurement techniques on the DART key-value structure",
      "DART is oblivious to the monitoring technology: in-band INT, "
      "postcards, query mirroring, trace analysis, anomalies, failures");

  const auto count = bench::flag_u64(argc, argv, "records", 10'000);

  std::vector<BackendRow> rows;
  rows.push_back(run_backend(
      "In-band INT", "flow 5-tuple", "packet-carried hop stack", count,
      [&](std::uint64_t i) {
        IntStack stack;
        for (std::uint32_t h = 0; h < 5; ++h) {
          stack.push_hop({.switch_id = static_cast<std::uint32_t>(
                              1 + (i * 7 + h) % 320)});
        }
        return make_inband_record(flow_i(i), stack, kValueBytes);
      }));
  rows.push_back(run_backend(
      "Postcards", "switchID + 5-tuple", "local measurement", count,
      [&](std::uint64_t i) {
        return make_postcard_record(
            static_cast<std::uint32_t>(1 + i % 320), flow_i(i),
            {.switch_id = static_cast<std::uint32_t>(1 + i % 320),
             .queue_depth = static_cast<std::uint32_t>(i % 128),
             .hop_latency_ns = 1000},
            kValueBytes);
      }));
  rows.push_back(run_backend(
      "Query-based mirroring", "queryID", "query answer", count,
      [&](std::uint64_t i) {
        std::vector<std::byte> answer(8, static_cast<std::byte>(i & 0xFF));
        return make_query_mirror_record(static_cast<std::uint32_t>(i), answer,
                                        kValueBytes);
      }));
  rows.push_back(run_backend(
      "Trace analysis", "analysisID + objectID", "analysis output", count,
      [&](std::uint64_t i) {
        std::vector<std::byte> output(12, static_cast<std::byte>(i & 0xFF));
        return make_trace_analysis_record(static_cast<std::uint32_t>(i % 16),
                                          i, output, kValueBytes);
      }));
  rows.push_back(run_backend(
      "Flow anomalies", "5-tuple + anomalyID", "time + event data", count,
      [&](std::uint64_t i) {
        FlowAnomalyEvent ev;
        ev.flow = flow_i(i);
        ev.kind = static_cast<AnomalyKind>(1 + i % 4);
        ev.timestamp_ns = 1'000'000 + i;
        ev.magnitude = static_cast<std::uint32_t>(i % 1000);
        return make_anomaly_record(ev, kValueBytes);
      }));
  rows.push_back(run_backend(
      "Network failures", "failureID + location", "time + debug info", count,
      [&](std::uint64_t i) {
        NetworkFailureEvent ev;
        ev.failure_id = static_cast<std::uint32_t>(i);
        ev.location = static_cast<std::uint32_t>(i % 640);
        ev.timestamp_ns = 2'000'000 + i;
        ev.debug_code = 0xD0D0;
        return make_failure_record(ev, kValueBytes);
      }));

  Table t({"backend", "key", "data", "key bytes", "reports ingested",
           "ingest rate", "query success"});
  for (const auto& r : rows) {
    t.row({r.backend, r.key_desc, r.data_desc, std::to_string(r.key_bytes),
           format_count(static_cast<double>(r.delivered)),
           format_count(static_cast<double>(r.delivered) / r.seconds) + "/s",
           fmt_percent(static_cast<double>(r.queried_ok) /
                           static_cast<double>(r.queries),
                       2)});
  }
  t.print(std::cout);

  std::printf(
      "\nShape check vs paper: every Table-1 technique maps onto the same\n"
      "key-value collection path with no backend-specific collector logic;\n"
      "query success is limited only by the §4 load factor, not the backend.\n");
  return 0;
}
