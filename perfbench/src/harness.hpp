// Shared harness of the end-to-end benchmark: options, the per-episode
// record every workload fills, correctness checks, the metric catalogue and
// the episode loop that turns episodes into the result line.
//
// A run repeats one workload's episode until --seconds have passed. Every
// episode builds the system under test afresh from the same generated
// inputs, so all episodes of a run do identical work, cut into the same
// timed segments (a few milliseconds each) and the same reads. Rates and
// latencies are built from each segment's and each read's fastest time over
// the episodes: host interference only ever slows a segment down, and it
// rarely hits the same segment in every episode. The correctness ratios
// repeat exactly for a fixed seed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "query/gateway.hpp"
#include "rdma/rnic.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;      // minimal sizes, for the smoke test
  std::string trace_out;   // CSV of the last traced episode's spans
};

// Accumulates wall and process-CPU time over segments: each start()/stop()
// pair is one segment, and the segments are kept in order.
class PhaseTimer {
 public:
  void start();
  void stop();
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }
  [[nodiscard]] double cpu_s() const noexcept { return cpu_s_; }
  [[nodiscard]] const std::vector<double>& wall_segments_s() const noexcept {
    return wall_segments_s_;
  }
  [[nodiscard]] const std::vector<double>& cpu_segments_s() const noexcept {
    return cpu_segments_s_;
  }

 private:
  double wall_s_ = 0;
  double cpu_s_ = 0;
  std::vector<double> wall_segments_s_;
  std::vector<double> cpu_segments_s_;
  std::int64_t wall0_ = 0;
  double cpu0_ = 0;
};

// What one episode measured.
struct Episode {
  double setup_s = 0;
  // Ingest phase: wall and process CPU time, reports emitted by switches
  // (minus drops the workload injects on purpose) and executed.
  PhaseTimer ingest;
  std::uint64_t reports_emitted = 0;
  std::uint64_t reports_executed = 0;
  // Query phase: wall time and the reads issued, answered (retired with an
  // answer: not timed out, refused or left pending) and correct.
  PhaseTimer query;
  std::uint64_t reads_issued = 0;
  std::uint64_t reads_answered = 0;
  std::uint64_t reads_correct = 0;
  // Per read, in issue order. The harness folds it into the run's per-read
  // minimum and then releases it, so memory does not grow with episodes.
  std::vector<double> latency_us;
  std::size_t latency_samples = 0;  // set by the harness
  // Per-layer values of this episode (counts and span-derived times).
  std::map<std::string, double> layer;
};

// Hard correctness checks: any failure marks the run incorrect. Failures
// are counted per distinct message.
class Checks {
 public:
  void require(bool ok, std::string_view what) {
    if (!ok) ++failures_[std::string(what)];
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& failures() const noexcept {
    return failures_;
  }

 private:
  std::map<std::string, std::uint64_t> failures_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Sets up the system under test, ingests, queries and checks. Every
  // episode must time the same segments and issue the same reads in the
  // same order. The tracer is enabled iff this episode is traced; spans are
  // opened only inside the ingest and query phases.
  virtual Episode run_episode(Tracer& tracer, Checks& checks) = 0;
  // Preconditions: prints them (lines starting with "# ") and records the
  // ones that must hold in `checks`.
  virtual void preconditions(Checks& checks) = 0;
  // Lowest query_correct_ratio a correct run may show (the workload's
  // loss and collision budget).
  [[nodiscard]] virtual double correct_floor() const { return 0.9; }
};

[[nodiscard]] std::unique_ptr<Workload> make_fabric_int(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_query_mix(const Options& opt);

// Runs episodes and prints the result; returns the process exit code.
int run_workload(const Options& opt, Workload& workload);

// --- helpers shared by the workloads ---------------------------------------

// Last-level cache size of this host (0 if unknown).
[[nodiscard]] std::uint64_t llc_bytes();

// Mean, p50 and p99 of one span kind's durations under `name` (+_p50/_p99).
void put_span_stats(Episode& ep, const Tracer& tracer, SpanKind kind,
                    const std::string& name);
// Self-time share of every layer and top-level coverage of the phases.
void put_ledger(Episode& ep, const SpanTotals& totals);

// The gateway's cache, coalescing, upstream and timeout ratios;
// `client_timeouts` adds requests a wire client gave up on.
void put_gateway_stats(Episode& ep, dart::query::QueryGateway& gw,
                       std::uint64_t client_timeouts);

// Total rejections of one RNIC; with `by_reason`, also adds each reason's
// count under "rdma.rejects_by_reason.<reason>".
std::uint64_t count_rejects(const dart::rdma::RnicCounters& rc,
                            std::map<std::string, double>* by_reason);

}  // namespace perfbench
