// Microbenchmarks (google-benchmark) of every stage of the DART data path:
//
//   switch side:    hash/address computation, full RoCEv2 report crafting
//   collector side: RNIC frame validation + DMA (with/without iCRC),
//                   raw store writes, queries under each return policy
//   baselines:      socket-path and PMD-path per-report I/O for comparison
//
// These rates back §2's argument: the RNIC-model ingest path (parse +
// validate + memcpy) runs at tens of millions of ops/s per core, while a
// CPU collector must *additionally* pay the storage-insert cost Fig. 1b
// measures.
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "baseline/dpdk_stack.hpp"
#include "baseline/report_gen.hpp"
#include "baseline/socket_stack.hpp"
#include "common/hash.hpp"
#include "core/collector.hpp"
#include "core/oracle.hpp"
#include "core/query.hpp"
#include "core/report_crafter.hpp"
#include "core/coding.hpp"
#include "core/store.hpp"
#include "switchsim/dart_switch.hpp"
#include "telemetry/event_detect.hpp"

namespace {

using namespace dart;
using namespace dart::core;

DartConfig config() {
  DartConfig cfg;
  cfg.n_slots = 1 << 20;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 20;
  cfg.master_seed = 0xB12C;
  return cfg;
}

CollectorEndpoint endpoint() {
  return {{2, 0, 0, 0, 0, 1}, net::Ipv4Addr::from_octets(10, 0, 100, 1)};
}

// Shared pre-materialized key pool (bench_util make_pool): big enough that
// cycling through it still touches the store cold (the pool spans every
// slot), while keeping sim_key synthesis out of every timed region.
constexpr std::size_t kKeyPoolSize = 1 << 20;
constexpr std::size_t kKeyPoolMask = kKeyPoolSize - 1;

const std::vector<std::array<std::byte, 8>>& key_pool() {
  static const auto pool = dart::bench::make_pool(
      kKeyPoolSize, [](std::size_t i) { return sim_key(i); });
  return pool;
}

// A pool of 4096 distinct WRITE reports to `collector`, pre-crafted so the
// ingest benches time the RNIC alone.
std::vector<std::vector<std::byte>> write_frame_pool(
    const Collector& collector) {
  const ReportCrafter crafter(config());
  ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  const auto tpl = crafter.make_write_template(collector.remote_info(), src);
  std::vector<std::vector<std::byte>> frames(
      4096, std::vector<std::byte>(tpl.frame_size()));
  std::array<std::byte, 20> value{};
  for (std::uint64_t i = 0; i < frames.size(); ++i) {
    crafter.craft_write_into(tpl, sim_key(i), value,
                             static_cast<std::uint32_t>(i % 2),
                             static_cast<std::uint32_t>(i), frames[i]);
  }
  return frames;
}

// Raw CRC-32 kernel cost at datapath-relevant sizes: 44 B is the craft
// path's resumed iCRC region, 88 B all the iCRC covers of a 20-byte-value
// report (the classifier runs it as a 48-byte masked head plus a 40-byte
// tail resumed in place), 94 B a full report frame, 1500 B an MTU frame
// (streaming throughput).
void BM_Crc32(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> buf(len);
  for (std::size_t i = 0; i < len; ++i) {
    buf[i] = static_cast<std::byte>(i * 131u + 7u);
  }
  std::uint32_t s = 0xFFFF'FFFFu;
  for (auto _ : state) {
    s = detail::crc32_update_dispatch(s, buf.data(), len);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
  state.SetLabel(std::string(simd_backend_name()));
}
BENCHMARK(BM_Crc32)->Arg(44)->Arg(88)->Arg(94)->Arg(1500);

void BM_HashAddressing(benchmark::State& state) {
  const HashFamily family(2, 0xB12C);
  const auto& keys = key_pool();
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto& key = keys[i++ & kKeyPoolMask];
    benchmark::DoNotOptimize(family.address_of(key, 0, 1 << 20));
    benchmark::DoNotOptimize(family.address_of(key, 1, 1 << 20));
    benchmark::DoNotOptimize(family.checksum_of(key, 32));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashAddressing);

// Same addressing work through the batched N-way entry point: 32 keys per
// call, slot hashes 4 lanes at a time through the AVX2 XXH64 kernel.
void BM_HashAddressingBurst(benchmark::State& state) {
  constexpr std::size_t kBurst = 32;
  const HashFamily family(2, 0xB12C);
  const auto& keys = key_pool();
  std::vector<std::uint32_t> ns(kBurst);
  for (std::size_t b = 0; b < kBurst; ++b) {
    ns[b] = static_cast<std::uint32_t>(b & 1);
  }
  std::vector<std::uint64_t> addrs(kBurst);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::size_t base = i & (kKeyPoolMask & ~(kBurst - 1));
    family.address_of_batch(keys[base].data(), /*key_len=*/8, /*stride=*/8,
                            ns, /*n_slots=*/1 << 20, addrs.data());
    benchmark::DoNotOptimize(addrs.data());
    i += kBurst;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kBurst);
  state.SetLabel("burst=32");
}
BENCHMARK(BM_HashAddressingBurst);

void BM_StoreWrite(benchmark::State& state) {
  DartStore store(config());
  const auto& keys = key_pool();
  std::array<std::byte, 20> value{};
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.write(keys[i++ & kKeyPoolMask], value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreWrite);

void BM_SwitchCraftReport(benchmark::State& state) {
  Collector collector(config(), 0, endpoint());
  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = config();
  sc.write_mode = WriteMode::kStochastic;
  switchsim::DartSwitchPipeline sw(sc);
  sw.load_collector(collector.remote_info());

  const auto& keys = key_pool();
  std::array<std::byte, 20> value{};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.on_telemetry(keys[i++ & kKeyPoolMask], value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchCraftReport);

// RNIC ingest: the zero-CPU path's per-report cost (which in deployment is
// paid by NIC silicon, not the host CPU).
void BM_RnicIngest(benchmark::State& state) {
  const bool validate_icrc = state.range(0) != 0;
  Collector collector(config(), 0, endpoint());
  collector.rnic().set_validate_icrc(validate_icrc);

  const auto frames = write_frame_pool(collector);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        collector.rnic().process_frame(frames[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(validate_icrc ? "icrc=on" : "icrc=off");
}
BENCHMARK(BM_RnicIngest)->Arg(1)->Arg(0);

// Template-path crafting alone: craft_write_into through a cached
// FrameTemplate into a stack buffer — the zero-allocation deparse.
void BM_CraftWriteTemplate(benchmark::State& state) {
  Collector collector(config(), 0, endpoint());
  const ReportCrafter crafter(config());
  ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  const auto tpl = crafter.make_write_template(collector.remote_info(), src);
  const auto& keys = key_pool();
  std::array<std::byte, 20> value{};
  std::array<std::byte, 128> out{};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crafter.craft_write_into(
        tpl, keys[i & kKeyPoolMask], value, static_cast<std::uint32_t>(i % 2),
        static_cast<std::uint32_t>(i) & 0x00FF'FFFFu, out));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CraftWriteTemplate);

// Burst crafting alone: craft_write_into_n, 32 frames per call, slot
// addresses batch-hashed 4 lanes at a time.
void BM_CraftWriteBurst(benchmark::State& state) {
  constexpr std::size_t kBurst = 32;
  Collector collector(config(), 0, endpoint());
  const ReportCrafter crafter(config());
  ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  const auto tpl = crafter.make_write_template(collector.remote_info(), src);
  const auto& keys = key_pool();
  std::array<std::byte, 20> value{};
  std::vector<ReportCrafter::WriteOp> ops(kBurst);
  std::vector<std::byte> out(kBurst * tpl.frame_size());
  std::uint64_t i = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < kBurst; ++b, ++i) {
      ops[b] = {keys[i & kKeyPoolMask], value,
                static_cast<std::uint32_t>(i % 2),
                static_cast<std::uint32_t>(i) & 0x00FF'FFFFu};
    }
    benchmark::DoNotOptimize(crafter.craft_write_into_n(tpl, ops, out));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kBurst);
  state.SetLabel("burst=32");
}
BENCHMARK(BM_CraftWriteBurst);

// Burst ingest alone: process_frames over pre-crafted frame bursts — the
// staged validate→prefetch→apply pipeline with the MR/QP checks hoisted.
void BM_RnicIngestBurst(benchmark::State& state) {
  constexpr std::size_t kBurst = 32;
  Collector collector(config(), 0, endpoint());
  collector.rnic().set_validate_icrc(true);
  const auto frames = write_frame_pool(collector);
  std::vector<std::span<const std::byte>> views(kBurst);
  std::uint64_t i = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < kBurst; ++b) {
      views[b] = frames[(i + b) & 4095];
    }
    benchmark::DoNotOptimize(collector.rnic().process_frames(views));
    i += kBurst;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kBurst);
  state.SetLabel("burst=32 icrc=on");
}
BENCHMARK(BM_RnicIngestBurst);

// The headline number of the perf trajectory: the full simulated
// switch→collector cost per report through the optimized burst datapath —
// craft_write_into_n (batch-hashed addressing, template iCRC resume) into a
// frame block, then process_frames (burst-validated, prefetched DMA apply),
// 32 reports per round, iCRC validated. The per-frame variant of the same
// path is BM_CraftPlusIngestSingle.
void BM_CraftPlusIngest(benchmark::State& state) {
  constexpr std::size_t kBurst = 32;
  Collector collector(config(), 0, endpoint());
  const ReportCrafter crafter(config());
  ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  const auto tpl = crafter.make_write_template(collector.remote_info(), src);
  const auto& keys = key_pool();
  std::array<std::byte, 20> value{};
  std::vector<ReportCrafter::WriteOp> ops(kBurst);
  std::vector<std::byte> out(kBurst * tpl.frame_size());
  std::vector<std::span<const std::byte>> views(kBurst);
  for (std::size_t b = 0; b < kBurst; ++b) {
    views[b] = std::span<const std::byte>(out).subspan(b * tpl.frame_size(),
                                                       tpl.frame_size());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < kBurst; ++b, ++i) {
      ops[b] = {keys[i & kKeyPoolMask], value,
                static_cast<std::uint32_t>(i % 2),
                static_cast<std::uint32_t>(i) & 0x00FF'FFFFu};
    }
    (void)crafter.craft_write_into_n(tpl, ops, out);
    benchmark::DoNotOptimize(collector.rnic().process_frames(views));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kBurst);
  state.SetLabel("burst=32 icrc=on");
}
BENCHMARK(BM_CraftPlusIngest);

// Per-frame variant of the headline path: craft_write_into + process_frame,
// one report at a time (no burst amortization, no prefetch distance).
void BM_CraftPlusIngestSingle(benchmark::State& state) {
  Collector collector(config(), 0, endpoint());
  const ReportCrafter crafter(config());
  ReporterEndpoint src;
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  const auto tpl = crafter.make_write_template(collector.remote_info(), src);
  const auto& keys = key_pool();
  std::array<std::byte, 20> value{};
  std::array<std::byte, 128> out{};
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::size_t len = crafter.craft_write_into(
        tpl, keys[i & kKeyPoolMask], value, static_cast<std::uint32_t>(i % 2),
        static_cast<std::uint32_t>(i) & 0x00FF'FFFFu, out);
    benchmark::DoNotOptimize(collector.rnic().process_frame(
        std::span<const std::byte>(out.data(), len)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("icrc=on");
}
BENCHMARK(BM_CraftPlusIngestSingle);

void BM_Query(benchmark::State& state) {
  const auto policy = static_cast<ReturnPolicy>(state.range(0));
  DartStore store(config());
  std::array<std::byte, 20> value{};
  constexpr std::uint64_t kKeys = 1 << 18;
  for (std::uint64_t i = 0; i < kKeys; ++i) store.write(sim_key(i), value);
  const QueryEngine q(store, policy);
  const auto& keys = key_pool();
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.resolve(keys[i++ & (kKeys - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(to_string(policy));
}
BENCHMARK(BM_Query)
    ->Arg(static_cast<int>(ReturnPolicy::kFirstMatch))
    ->Arg(static_cast<int>(ReturnPolicy::kPlurality))
    ->Arg(static_cast<int>(ReturnPolicy::kConsensusTwo));

// Baseline I/O paths for the §2 comparison.
void BM_SocketPathPerReport(benchmark::State& state) {
  baseline::SocketStack sock(2048, 1 << 16);
  baseline::ReportGenerator gen(baseline::ReportSpec{.packet_bytes = 64});
  std::vector<std::byte> wire(64);
  std::vector<std::byte> user(2048);
  gen.next(wire);
  for (auto _ : state) {
    (void)sock.kernel_receive(wire);
    benchmark::DoNotOptimize(sock.user_receive(user));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SocketPathPerReport);

void BM_DpdkPathPerReport(benchmark::State& state) {
  baseline::DpdkStack dpdk(1024);
  baseline::ReportGenerator gen(baseline::ReportSpec{.packet_bytes = 64});
  std::vector<std::byte> wire(64);
  gen.next(wire);
  std::array<baseline::Mbuf, 32> burst;
  for (auto _ : state) {
    (void)dpdk.nic_enqueue(wire);
    if (dpdk.pending() >= 32) {
      benchmark::DoNotOptimize(dpdk.rx_burst(burst));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DpdkPathPerReport);

// §7 DTA multiwrite: one frame, N DMAs.
void BM_RnicMultiwriteIngest(benchmark::State& state) {
  Collector collector(config(), 0, endpoint());
  collector.rnic().set_dta_multiwrite(true);
  const ReportCrafter crafter(config());
  const auto tpl =
      crafter.make_multiwrite_template(collector.remote_info(), {});
  std::vector<std::vector<std::byte>> frames(
      4096, std::vector<std::byte>(tpl.frame_size()));
  std::array<std::byte, 20> value{};
  for (std::uint64_t i = 0; i < frames.size(); ++i) {
    crafter.craft_multiwrite_into(tpl, sim_key(i), value,
                                  static_cast<std::uint32_t>(i), frames[i]);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        collector.rnic().process_frame(frames[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RnicMultiwriteIngest);

// §4 coding-theory slot hardening: write+query with mask + per-location csum.
void BM_CodedStoreQuery(benchmark::State& state) {
  CodedStore store(config(), {});
  std::array<std::byte, 20> value{};
  constexpr std::uint64_t kKeys = 1 << 16;
  for (std::uint64_t i = 0; i < kKeys; ++i) store.write(sim_key(i), value);
  const auto& keys = key_pool();
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(keys[i++ & (kKeys - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodedStoreQuery);

// §2 event detector: per-packet filtering cost at the switch.
void BM_ChangeDetectorObserve(benchmark::State& state) {
  telemetry::ChangeDetector detector(
      {.table_size = 1 << 16, .threshold = 8});
  const auto& keys = key_pool();
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto& key = keys[i & 0xFFF];  // 4K-flow working set
    benchmark::DoNotOptimize(
        detector.observe(key, static_cast<std::uint32_t>(i >> 6), i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChangeDetectorObserve);

// Console reporter that additionally captures every run's throughput so the
// custom main below can emit BENCH_micro_datapath.json.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double items_per_sec = 0.0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        e.items_per_sec = static_cast<double>(it->second);
      }
      entries_.push_back(std::move(e));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  const DartConfig cfg = config();
  dart::bench::BenchJson json("micro_datapath");
  json.config("n_slots", static_cast<double>(cfg.n_slots));
  json.config("n_addresses", static_cast<double>(cfg.n_addresses));
  json.config("checksum_bits", static_cast<double>(cfg.checksum_bits));
  json.config("value_bytes", static_cast<double>(cfg.value_bytes));
  json.config("simd_backend", std::string(dart::simd_backend_name()));
  // Legend for numeric benchmark-name suffixes (google-benchmark encodes
  // Arg(v) as "<name>/<v>", which becomes "<name>_<v>" in the result keys):
  json.config("BM_RnicIngest_0", "icrc=off");
  json.config("BM_RnicIngest_1", "icrc=on");
  json.config("BM_Crc32_N", "buffer length in bytes");
  json.config("BM_Query_N", "ReturnPolicy enum value");
  json.config("BM_CraftPlusIngest", "burst=32 craft_write_into_n + process_frames, icrc=on");

  double headline_ips = 0.0;
  for (const auto& e : reporter.entries()) {
    std::string key = e.name;
    for (char& c : key) {
      if (c == '/' || c == ':') c = '_';
    }
    json.result(key + "_items_per_sec", e.items_per_sec);
    // Per-stage latency alongside every throughput number, so EXPERIMENTS.md
    // stage tables read straight out of the JSON.
    if (e.items_per_sec > 0.0) {
      json.result(key + "_ns_per_item", 1e9 / e.items_per_sec);
    }
    if (e.name == "BM_CraftPlusIngest") headline_ips = e.items_per_sec;
  }
  // Headline: full craft+ingest datapath, what the ≥2× acceptance tracks.
  json.result("reports_per_sec", headline_ips);
  json.result("ns_per_report", headline_ips > 0.0 ? 1e9 / headline_ips : 0.0);
  json.write();

  benchmark::Shutdown();
  return 0;
}
