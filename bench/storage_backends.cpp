// Storage backends — accuracy vs memory at matched budgets.
//
// The KV store answers "what was this flow's last value" exactly (up to
// collision loss priced by §4); the count-min SketchBackend answers "how
// often was this flow seen" approximately but in far less memory per flow.
// This bench pins both to the SAME byte budget at several KV load factors
// and measures what each buys:
//
//   - KV: exact-retrieval rate (resolve returns the flow's true final count)
//   - sketch: per-flow relative error (mean / p99), mean absolute
//     overestimate, the fraction of flows inside the classic e/cols bound,
//     and top-32 heavy-hitter recall through the read-side tracker
//   - both: local apply-path throughput over the identical Zipf stream
//
// Wire-path equivalence of the apply path used here is pinned by
// tests/core/test_store_backend.cpp and tests/check/test_prop_backend.cpp,
// so the accuracy numbers transfer to the RDMA ingest path unchanged.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/oracle.hpp"
#include "core/store_backend.hpp"

namespace {

using namespace dart;
using namespace dart::core;

constexpr std::size_t kTopK = 32;

struct LfResult {
  double load_factor = 0;
  std::uint64_t kv_slots = 0;
  std::uint64_t kv_bytes = 0;
  std::uint64_t sketch_cols = 0;
  std::uint64_t sketch_bytes = 0;
  double kv_exact_rate = 0;
  double kv_updates_per_sec = 0;
  double sketch_mean_rel_err = 0;
  double sketch_p99_rel_err = 0;
  double sketch_mean_overestimate = 0;
  double sketch_error_bound = 0;        // e/cols * total_updates
  double sketch_within_bound_rate = 0;
  double sketch_topk_recall = 0;
  double sketch_updates_per_sec = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

LfResult run_load_factor(double lf, std::uint64_t flows,
                         std::uint64_t updates, std::uint32_t rows,
                         double zipf_s, std::uint64_t seed) {
  LfResult out;
  out.load_factor = lf;

  DartConfig dart;
  dart.n_addresses = 2;
  dart.value_bytes = 8;
  dart.checksum_bits = 32;
  dart.master_seed = seed;
  // lf = keys·N / slots — the §4 convention — so both backends shrink as
  // the operator loads the same flow population into less memory.
  dart.n_slots = std::max<std::uint64_t>(
      16, static_cast<std::uint64_t>(
              std::ceil(static_cast<double>(flows) * dart.n_addresses / lf)));
  out.kv_slots = dart.n_slots;

  StoreBackendConfig kv_choice;  // default kind == kKv
  auto kv = make_backend(dart, kv_choice);
  out.kv_bytes = kv->memory_bytes();

  // Sketch sized to the SAME byte budget: rows fixed, cols = budget/(rows·8).
  StoreBackendConfig sk_choice;
  sk_choice.kind = StoreBackendKind::kSketch;
  sk_choice.sketch.rows = rows;
  sk_choice.sketch.cols = std::max<std::uint64_t>(
      4, out.kv_bytes / (static_cast<std::uint64_t>(rows) * 8));
  sk_choice.sketch.seed = seed ^ 0x5EED'0000;
  sk_choice.sketch.topk_capacity = 2 * kTopK;
  auto sketch = make_backend(dart, sk_choice);
  auto& sk = static_cast<SketchBackend&>(*sketch);
  out.sketch_cols = sk_choice.sketch.cols;
  out.sketch_bytes = sketch->memory_bytes();

  // One Zipf update stream drives both backends identically.
  Xoshiro256 rng(seed);
  const ZipfSampler zipf(flows, zipf_s);
  std::vector<std::uint32_t> stream(updates);
  std::vector<std::uint64_t> truth(flows, 0);
  for (auto& f : stream) {
    f = static_cast<std::uint32_t>(zipf.sample(rng));
    ++truth[f];
  }

  // Keys and running-count values pre-materialized (bench_util pool rule).
  const auto keys = bench::make_pool(flows, [](std::size_t i) {
    return sim_key(static_cast<std::uint64_t>(i));
  });

  // KV ingest: every update writes the flow's running count, so the final
  // bytes are exactly what a live last-write-wins feed leaves behind.
  {
    std::vector<std::uint64_t> running(flows, 0);
    std::array<std::byte, 8> value{};
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto f : stream) {
      const std::uint64_t c = ++running[f];
      std::memcpy(value.data(), &c, 8);
      kv->apply_report(keys[f], value);
    }
    out.kv_updates_per_sec = static_cast<double>(updates) / seconds_since(t0);
  }

  // Sketch ingest: one unit increment per update (the FETCH_ADD fan-out's
  // local twin).
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto f : stream) sketch->apply_report(keys[f], {});
    out.sketch_updates_per_sec =
        static_cast<double>(updates) / seconds_since(t0);
  }

  // --- KV accuracy: exact final-count retrieval ---------------------------
  std::uint64_t kv_exact = 0;
  for (std::uint64_t f = 0; f < flows; ++f) {
    if (truth[f] == 0) continue;
    const auto r = kv->resolve(keys[f], ReturnPolicy::kPlurality);
    std::uint64_t got = 0;
    if (r.outcome == QueryOutcome::kFound && r.value.size() == 8) {
      std::memcpy(&got, r.value.data(), 8);
    }
    if (got == truth[f]) ++kv_exact;
  }
  std::uint64_t active_flows = 0;
  for (const auto c : truth) active_flows += (c != 0);
  out.kv_exact_rate =
      static_cast<double>(kv_exact) / static_cast<double>(active_flows);

  // --- sketch accuracy ----------------------------------------------------
  std::vector<double> rel_errs;
  rel_errs.reserve(active_flows);
  double overestimate_sum = 0;
  std::uint64_t within_bound = 0;
  out.sketch_error_bound = std::exp(1.0) /
                           static_cast<double>(sk_choice.sketch.cols) *
                           static_cast<double>(updates);
  for (std::uint64_t f = 0; f < flows; ++f) {
    if (truth[f] == 0) continue;
    const std::uint64_t est = sk.estimate(keys[f]);
    sk.offer(keys[f]);  // read-side tracker feed, as the query path does
    const double over = static_cast<double>(est - truth[f]);  // est >= truth
    overestimate_sum += over;
    rel_errs.push_back(over / static_cast<double>(truth[f]));
    if (over <= out.sketch_error_bound) ++within_bound;
  }
  std::sort(rel_errs.begin(), rel_errs.end());
  out.sketch_mean_rel_err =
      std::accumulate(rel_errs.begin(), rel_errs.end(), 0.0) /
      static_cast<double>(rel_errs.size());
  out.sketch_p99_rel_err =
      rel_errs[static_cast<std::size_t>(0.99 * (rel_errs.size() - 1))];
  out.sketch_mean_overestimate =
      overestimate_sum / static_cast<double>(active_flows);
  out.sketch_within_bound_rate =
      static_cast<double>(within_bound) / static_cast<double>(active_flows);

  // --- heavy-hitter recall ------------------------------------------------
  std::vector<std::uint64_t> order(flows);
  for (std::uint64_t f = 0; f < flows; ++f) order[f] = f;
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return truth[a] > truth[b];
  });
  const std::size_t k = std::min<std::size_t>(kTopK, active_flows);
  // Tie-robust truth set: everything with count >= the k-th count qualifies.
  const std::uint64_t kth = truth[order[k - 1]];
  std::unordered_set<std::uint64_t> true_top;
  for (std::uint64_t f = 0; f < flows; ++f) {
    if (truth[f] >= kth && truth[f] > 0) true_top.insert(f);
  }
  std::size_t hits = 0;
  for (const auto& hh : sk.top_k(k)) {
    for (std::uint64_t f = 0; f < flows; ++f) {
      const auto key = sim_key(f);
      if (hh.key.size() == key.size() &&
          std::memcmp(hh.key.data(), key.data(), key.size()) == 0) {
        if (true_top.count(f) != 0) ++hits;
        break;
      }
    }
  }
  out.sketch_topk_recall = static_cast<double>(hits) / static_cast<double>(k);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Refused before any backend is built: the sketch geometry holds
  // 1..kMaxRows rows and the budget is divided by them, and the accuracy
  // percentiles and the top-k cut need at least one flow that was updated.
  const double rows_flag = bench::flag_double(argc, argv, "rows", 4);
  const double flows_flag = bench::flag_double(argc, argv, "flows", 3000);
  const double updates_flag = bench::flag_double(argc, argv, "updates", 300000);
  if (!(rows_flag >= 1 && rows_flag <= CellGeometry::kMaxRows) ||
      !(flows_flag >= 1) || !(updates_flag >= 1)) {
    std::fprintf(stderr,
                 "usage: storage_backends [--flows=N>=1] [--updates=N>=1] "
                 "[--rows=1..%u] [--zipf=S] [--seed=N]\n"
                 "storage_backends: got --rows=%g --flows=%g --updates=%g\n",
                 CellGeometry::kMaxRows, rows_flag, flows_flag, updates_flag);
    return 2;
  }
  const auto rows = static_cast<std::uint32_t>(rows_flag);
  const auto flows = static_cast<std::uint64_t>(flows_flag);
  const auto updates = static_cast<std::uint64_t>(updates_flag);

  bench::banner(
      "Storage backends — accuracy vs memory at matched byte budgets",
      "sketch-backed compact storage trades exactness for graceful accuracy "
      "decay where the KV store's exact rate collapses with load");

  const double zipf_s = bench::flag_double(argc, argv, "zipf", 1.05);
  const auto seed = bench::flag_u64(argc, argv, "seed", 0xBE9C'0008);
  const std::vector<double> lfs{0.5, 1.5, 3.0};

  bench::BenchJson json("storage_backends");
  json.config("flows", static_cast<double>(flows));
  json.config("updates", static_cast<double>(updates));
  json.config("rows", static_cast<double>(rows));
  json.config("zipf_s", zipf_s);
  json.config("topk", static_cast<double>(kTopK));

  Table t({"load α", "bytes", "KV exact", "KV upd/s", "sk mean err",
           "sk p99 err", "sk ≤bound", "sk top-32 recall", "sk upd/s"});
  for (const double lf : lfs) {
    const auto r = run_load_factor(lf, flows, updates, rows, zipf_s, seed);
    t.row({fmt_double(lf, 1), format_count(static_cast<double>(r.kv_bytes)),
           fmt_percent(r.kv_exact_rate, 2),
           format_count(r.kv_updates_per_sec),
           fmt_double(r.sketch_mean_rel_err, 4),
           fmt_double(r.sketch_p99_rel_err, 4),
           fmt_percent(r.sketch_within_bound_rate, 2),
           fmt_percent(r.sketch_topk_recall, 2),
           format_count(r.sketch_updates_per_sec)});

    const std::string p = "lf" + fmt_double(lf, 1) + "_";
    json.result(p + "kv_slots", static_cast<double>(r.kv_slots));
    json.result(p + "kv_bytes", static_cast<double>(r.kv_bytes));
    json.result(p + "sketch_cols", static_cast<double>(r.sketch_cols));
    json.result(p + "sketch_bytes", static_cast<double>(r.sketch_bytes));
    json.result(p + "kv_exact_rate", r.kv_exact_rate);
    json.result(p + "kv_updates_per_sec", r.kv_updates_per_sec);
    json.result(p + "sketch_mean_rel_err", r.sketch_mean_rel_err);
    json.result(p + "sketch_p99_rel_err", r.sketch_p99_rel_err);
    json.result(p + "sketch_mean_overestimate", r.sketch_mean_overestimate);
    json.result(p + "sketch_error_bound", r.sketch_error_bound);
    json.result(p + "sketch_within_bound_rate", r.sketch_within_bound_rate);
    json.result(p + "sketch_topk_recall", r.sketch_topk_recall);
    json.result(p + "sketch_updates_per_sec", r.sketch_updates_per_sec);
  }
  t.print(std::cout);
  std::printf(
      "\nEqual byte budgets per row; the sketch converts the KV store's\n"
      "collision-driven exactness cliff into bounded overestimates plus\n"
      "heavy-hitter recall through the read-side tracker.\n");

  if (!json.write()) std::fprintf(stderr, "warning: BENCH json write failed\n");
  return 0;
}
