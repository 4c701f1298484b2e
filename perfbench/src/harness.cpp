#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstring>
#include <ctime>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/hash.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: printed by every untraced run, in this order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"reports_per_s", "1/s"},
    {"cpu_ns_per_report", "ns"},
    {"report_executed_ratio", "ratio"},
    {"queries_per_s", "1/s"},
    {"query_latency_us_p50", "us"},
    {"query_latency_us_p99", "us"},
    {"query_correct_ratio", "ratio"},
    {"query_answered_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics: printed by every traced run. A layer a workload leaves
// idle reads 0 there.
constexpr const char* kRejectMetrics[] = {
    "rdma.rejects_by_reason.not_roce",      "rdma.rejects_by_reason.bad_icrc",
    "rdma.rejects_by_reason.bad_opcode",    "rdma.rejects_by_reason.unknown_qp",
    "rdma.rejects_by_reason.psn_rejected",  "rdma.rejects_by_reason.bad_rkey",
    "rdma.rejects_by_reason.pd_mismatch",   "rdma.rejects_by_reason.access_denied",
    "rdma.rejects_by_reason.out_of_bounds", "rdma.rejects_by_reason.unaligned_atomic",
    "rdma.rejects_by_reason.stalled",       "rdma.rejects_by_reason.qp_error",
};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> defs = {
      {"telemetry.send_flow_ns_per_packet", "ns"},
      {"net.run_ns_per_report", "ns"},
      {"net.deliveries_per_report", "count"},
      {"net.sim_self_ns_per_request", "ns"},
      {"net.monitoring_drop_ratio", "ratio"},
      {"switchsim.craft_ns_per_event", "ns"},
      {"switchsim.frames_per_event", "count"},
      {"rdma.kv_ns_per_frame", "ns"},
      {"rdma.sketch_ns_per_frame", "ns"},
      {"rdma.executed_ratio", "ratio"},
      {"rdma.rejects_total", "count"},
  };
  for (const char* n : kRejectMetrics) defs.push_back({n, "count"});
  const MetricDef rest[] = {
      {"core.operator_query_ns", "ns"},
      {"core.query_service_receive_ns", "ns"},
      {"core.query_service_receive_ns_p50", "ns"},
      {"core.query_service_receive_ns_p99", "ns"},
      {"query.session_submit_ns", "ns"},
      {"query.session_submit_ns_p50", "ns"},
      {"query.session_submit_ns_p99", "ns"},
      {"query.gateway_receive_ns", "ns"},
      {"query.gateway_receive_ns_p50", "ns"},
      {"query.gateway_receive_ns_p99", "ns"},
      {"query.on_epoch_ns", "ns"},
      {"query.on_epoch_ns_p50", "ns"},
      {"query.on_epoch_ns_p99", "ns"},
      {"query.cache_hit_ratio", "ratio"},
      {"query.coalesced_ratio", "ratio"},
      {"query.upstream_per_request", "count"},
      {"query.timeouts", "count"},
      {"report_fail_ratio", "ratio"},
      {"query_fail_ratio", "ratio"},
      {"query_latency_samples", "count"},
      {"ledger.telemetry.self_share", "ratio"},
      {"ledger.net.self_share", "ratio"},
      {"ledger.switchsim.self_share", "ratio"},
      {"ledger.rdma.self_share", "ratio"},
      {"ledger.core.self_share", "ratio"},
      {"ledger.query.self_share", "ratio"},
      {"trace.coverage_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.spans", "count"},
  };
  for (const auto& d : rest) defs.push_back(d);
  return defs;
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// CPU brand string from CPUID (no file reads outside the checkout).
std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x8000'0000u, nullptr);
  if (max_ext < 0x8000'0004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x8000'0002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  double s = 0;
  for (const double v : values) s += v;
  return s;
}

// Folds one episode's series into the run's element-wise minimum; the first
// series is taken as it is. Returns false if the lengths differ, that is if
// the episodes did not do the same work.
bool fold_min(std::vector<double>& best, const std::vector<double>& next) {
  if (best.empty()) {
    best = next;
    return true;
  }
  if (best.size() != next.size()) return false;
  for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], next[i]);
  return true;
}

std::uint32_t host_threads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::uint32_t>(n) : 1;
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_metrics_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<std::pair<MetricDef, double>>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.name, finite(m[i].second),
                m[i].first.unit);
  }
  std::printf("}}\n");
}

}  // namespace

void PhaseTimer::start() {
  wall0_ = now_ns();
  cpu0_ = cpu_now_s();
}

void PhaseTimer::stop() {
  const double wall = static_cast<double>(now_ns() - wall0_) * 1e-9;
  const double cpu = cpu_now_s() - cpu0_;
  wall_s_ += wall;
  cpu_s_ += cpu;
  wall_segments_s_.push_back(wall);
  cpu_segments_s_.push_back(cpu);
}

std::uint64_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::uint64_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::uint64_t>(l2) : 0;
}

std::uint64_t count_rejects(const dart::rdma::RnicCounters& rc,
                            std::map<std::string, double>* by_reason) {
  const std::uint64_t counts[] = {
      rc.not_roce,    rc.bad_icrc,    rc.bad_opcode,    rc.unknown_qp,
      rc.psn_rejected, rc.bad_rkey,   rc.pd_mismatch,   rc.access_denied,
      rc.out_of_bounds, rc.unaligned_atomic, rc.stalled, rc.qp_error,
  };
  static_assert(std::size(counts) == std::size(kRejectMetrics));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    total += counts[i];
    if (by_reason != nullptr) {
      (*by_reason)[kRejectMetrics[i]] += static_cast<double>(counts[i]);
    }
  }
  return total;
}

void put_span_stats(Episode& ep, const Tracer& tracer, SpanKind kind,
                    const std::string& name) {
  const auto d = tracer.durations(kind);
  double sum = 0;
  for (const double x : d) sum += x;
  ep.layer[name] = d.empty() ? 0.0 : sum / static_cast<double>(d.size());
  ep.layer[name + "_p50"] = quantile(d, 0.50);
  ep.layer[name + "_p99"] = quantile(d, 0.99);
}

void put_gateway_stats(Episode& ep, dart::query::QueryGateway& gw,
                       std::uint64_t client_timeouts) {
  const auto requests = static_cast<double>(gw.requests_total());
  const auto hits = static_cast<double>(gw.cache().hits());
  ep.layer["query.cache_hit_ratio"] =
      ratio(hits, hits + static_cast<double>(gw.cache().misses()));
  ep.layer["query.coalesced_ratio"] =
      ratio(static_cast<double>(gw.coalesced_total()), requests);
  ep.layer["query.upstream_per_request"] =
      ratio(static_cast<double>(gw.upstream_sent()), requests);
  ep.layer["query.timeouts"] =
      static_cast<double>(gw.upstream_timeouts() + client_timeouts);
}

void put_ledger(Episode& ep, const SpanTotals& totals) {
  const double phase_ns = (ep.ingest.wall_s() + ep.query.wall_s()) * 1e9;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    ep.layer[std::string("ledger.") + layer_name(static_cast<Layer>(l)) +
             ".self_share"] = ratio(totals.layer_self_ns[l], phase_ns);
  }
  ep.layer["trace.coverage_ratio"] = ratio(totals.top_level_ns, phase_ns);
}

int run_workload(const Options& opt, Workload& workload) {
  Checks checks;
  const std::uint32_t nproc = host_threads();
  std::printf("# host: nproc=%u cpu=\"%s\" simd=%s build=%s traced=%d "
              "llc_bytes=%llu\n",
              nproc, cpu_model().c_str(),
              std::string(dart::simd_backend_name()).c_str(),
              PERFBENCH_BUILD_TYPE, opt.trace ? 1 : 0,
              static_cast<unsigned long long>(llc_bytes()));
  // Every workload runs on the calling thread alone.
  constexpr std::uint32_t kThreads = 1;
  std::printf("# workload=%s seed=%llu seconds=%g smoke=%d threads=%u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.smoke ? 1 : 0, kThreads);
  checks.require(kThreads <= nproc, "thread count " + std::to_string(kThreads) +
                                        " exceeds nproc " + std::to_string(nproc));
  workload.preconditions(checks);

  Tracer tracer;
  // Warm-up episode: lets lazy set-up (allocator arenas, page cache of the
  // binary, CPU frequency) settle. Checked, not measured.
  (void)workload.run_episode(tracer, checks);

  std::vector<Episode> plain;
  std::vector<Episode> traced;
  // Each timed segment's and each read's fastest time over the untraced
  // episodes.
  std::vector<double> best_ingest_wall, best_ingest_cpu, best_query_wall,
      best_latency_us;
  const std::size_t min_each = opt.trace ? 2 : 3;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
    const bool enough = plain.size() >= min_each &&
                        (!opt.trace || traced.size() >= min_each);
    // Traced runs alternate untraced and traced episodes of identical work,
    // so the pair gives the tracing overhead; they stop right after a traced
    // episode, whose spans are then still in the tracer.
    const bool trace_this = opt.trace && i % 2 == 1;
    if (enough && elapsed >= opt.seconds && !trace_this) break;
    // Hand the previous episode's freed heap back to the OS, so every episode
    // starts from the same allocator state and peak_rss_mb reflects one.
    malloc_trim(0);
    tracer.clear();
    tracer.set_enabled(trace_this);
    Episode ep = workload.run_episode(tracer, checks);
    tracer.set_enabled(false);
    if (!trace_this) {
      bool same = fold_min(best_ingest_wall, ep.ingest.wall_segments_s());
      same = fold_min(best_ingest_cpu, ep.ingest.cpu_segments_s()) && same;
      same = fold_min(best_query_wall, ep.query.wall_segments_s()) && same;
      same = fold_min(best_latency_us, ep.latency_us) && same;
      checks.require(same, "episodes timed different segments or reads");
    }
    ep.latency_samples = ep.latency_us.size();
    std::vector<double>().swap(ep.latency_us);
    if (trace_this) {
      put_ledger(ep, tracer.totals());
      ep.layer["trace.spans"] = static_cast<double>(tracer.spans().size());
      traced.push_back(std::move(ep));
    } else {
      plain.push_back(std::move(ep));
    }
    const Episode& last = trace_this ? traced.back() : plain.back();
    std::printf("# episode %zu%s: setup %.6f s, ingest %.4f s (%.0f reports/s), "
                "query %.4f s (%.0f reads/s)\n",
                i, trace_this ? " traced" : "", last.setup_s,
                last.ingest.wall_s(),
                ratio(static_cast<double>(last.reports_executed), last.ingest.wall_s()),
                last.query.wall_s(),
                ratio(static_cast<double>(last.reads_answered), last.query.wall_s()));
  }

  if (opt.trace && !opt.trace_out.empty() && !tracer.write_csv(opt.trace_out)) {
    std::fprintf(stderr, "warning: cannot write %s\n", opt.trace_out.c_str());
  }

  // Totals over the measured episodes of the kind this run reports.
  const auto& eps = opt.trace ? traced : plain;
  std::uint64_t emitted = 0, executed = 0, issued = 0, answered = 0,
                correct = 0;
  std::vector<double> setup;
  std::size_t samples = 0;
  for (const auto& ep : eps) {
    emitted += ep.reports_emitted;
    executed += ep.reports_executed;
    issued += ep.reads_issued;
    answered += ep.reads_answered;
    correct += ep.reads_correct;
    setup.push_back(ep.setup_s);
    samples += ep.latency_samples;
  }
  const double correct_ratio =
      ratio(static_cast<double>(correct), static_cast<double>(issued));
  checks.require(executed <= emitted, "more reports executed than emitted");
  checks.require(correct_ratio >= workload.correct_floor(),
                 "query_correct_ratio " + std::to_string(correct_ratio) +
                     " below the workload floor " +
                     std::to_string(workload.correct_floor()));
  const std::uint64_t attempted = emitted + issued;
  const std::uint64_t failed = (emitted - std::min(emitted, executed)) +
                               (issued - std::min(issued, answered));

  std::printf("# episodes: %zu untraced, %zu traced (+1 warm-up); "
              "latency samples %zu; reports %llu/%llu executed; reads "
              "%llu issued, %llu answered, %llu correct\n",
              plain.size(), traced.size(), samples,
              static_cast<unsigned long long>(executed),
              static_cast<unsigned long long>(emitted),
              static_cast<unsigned long long>(issued),
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(correct));
  for (const auto& [what, n] : checks.failures()) {
    std::printf("# CHECK FAILED (%llu times): %s\n", static_cast<unsigned long long>(n),
                what.c_str());
  }

  std::vector<std::pair<MetricDef, double>> out;
  if (!opt.trace) {
    // Episodes repeat identical work, so the spread between them is
    // interference from the host, which only ever slows a segment down. An
    // episode's work is timed at its fastest: the sum of every segment's
    // fastest time, and every read's fastest latency. Set-up time keeps the
    // median.
    const auto n = static_cast<double>(plain.size());
    const double executed_per_episode = static_cast<double>(executed) / n;
    const double values[] = {
        median(setup),
        ratio(executed_per_episode, sum(best_ingest_wall)),
        ratio(sum(best_ingest_cpu) * 1e9, executed_per_episode),
        ratio(static_cast<double>(executed), static_cast<double>(emitted)),
        ratio(static_cast<double>(answered) / n, sum(best_query_wall)),
        quantile(best_latency_us, 0.50),
        quantile(best_latency_us, 0.99),
        correct_ratio,
        ratio(static_cast<double>(answered), static_cast<double>(issued)),
        peak_rss_mb(),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    std::vector<double> plain_wall, traced_wall;
    for (const auto& ep : plain) plain_wall.push_back(ep.ingest.wall_s() + ep.query.wall_s());
    for (const auto& ep : traced) traced_wall.push_back(ep.ingest.wall_s() + ep.query.wall_s());
    for (const auto& def : per_layer_defs()) {
      const std::string name = def.name;
      double v = 0.0;
      if (name == "trace.overhead_ratio") {
        v = ratio(median(traced_wall), median(plain_wall)) - 1.0;
      } else if (name == "report_fail_ratio") {
        v = 1.0 - ratio(static_cast<double>(executed), static_cast<double>(emitted));
      } else if (name == "query_fail_ratio") {
        v = 1.0 - ratio(static_cast<double>(answered), static_cast<double>(issued));
      } else if (name == "query_latency_samples") {
        v = static_cast<double>(samples);
      } else {
        std::vector<double> per_ep;
        for (const auto& ep : traced) {
          const auto it = ep.layer.find(name);
          if (it != ep.layer.end()) per_ep.push_back(it->second);
        }
        v = median(per_ep);
      }
      out.emplace_back(def, v);
    }
    for (const auto& [def, v] : out) {
      if (std::strncmp(def.name, "ledger.", 7) == 0 ||
          std::strncmp(def.name, "trace.", 6) == 0) {
        std::printf("# %-28s %.4f\n", def.name, v);
      }
    }
  }
  std::fflush(stdout);
  print_metrics_json(checks.ok(), attempted, failed, out);
  return checks.ok() ? 0 : 1;
}

}  // namespace perfbench
