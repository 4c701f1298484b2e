#!/usr/bin/env bash
# Builds the benches in Release and smoke-runs the two perf-trajectory
# binaries (micro_datapath, scaling_ingest_threads) with a small rep count,
# then validates that each emitted BENCH_<name>.json parses and carries the
# required keys. This is the gate that keeps the machine-readable perf
# baseline from silently rotting between PRs.
#
# Usage: tools/check_bench.sh [build-dir]   (default: build-bench)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

# The docs gate rides along: stale paths and broken links fail here too.
tools/check_docs.sh

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target micro_datapath scaling_ingest_threads ablation_faults primitives \
  storage_backends scaling_query_clients scaling_collectors dart_metrics

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

# Small rep counts: this validates plumbing, not statistics.
# NOTE: the bundled google-benchmark wants a plain double for min_time.
(cd "$OUT_DIR" && "$OLDPWD/$BUILD_DIR/bench/micro_datapath" \
  --benchmark_min_time=0.05)
(cd "$OUT_DIR" && "$OLDPWD/$BUILD_DIR/bench/scaling_ingest_threads" \
  --reports=40000)
(cd "$OUT_DIR" && "$OLDPWD/$BUILD_DIR/bench/ablation_faults" --flows=15)
(cd "$OUT_DIR" && "$OLDPWD/$BUILD_DIR/bench/primitives" --events=30000)
(cd "$OUT_DIR" && "$OLDPWD/$BUILD_DIR/bench/storage_backends" \
  --flows=800 --updates=60000)
(cd "$OUT_DIR" && "$OLDPWD/$BUILD_DIR/bench/scaling_query_clients" \
  --max-clients=64 --rounds=4)
(cd "$OUT_DIR" && "$OLDPWD/$BUILD_DIR/bench/scaling_collectors" \
  --flows=400000 --frames=4000)

# Metrics snapshot: conservation invariants plus the JSON exposition, and
# the chaos run that holds those invariants under every injected fault class.
"$BUILD_DIR/tools/dart_metrics" selfcheck
"$BUILD_DIR/tools/dart_metrics" chaos
"$BUILD_DIR/tools/dart_metrics" fabric --flows=40 --loss=0.1 \
  --json="$OUT_DIR/METRICS_fabric.json"

python3 - "$OUT_DIR" <<'EOF'
import json
import sys
from pathlib import Path

out_dir = Path(sys.argv[1])
required = ["reports_per_sec", "ns_per_report"]
failures = 0
for name in ["micro_datapath", "scaling_ingest_threads", "primitives"]:
    path = out_dir / f"BENCH_{name}.json"
    if not path.exists():
        print(f"FAIL: {path} was not emitted")
        failures += 1
        continue
    doc = json.loads(path.read_text())  # raises on malformed JSON
    for key in ["name", "config", "results"]:
        if key not in doc:
            print(f"FAIL: {path}: missing top-level key '{key}'")
            failures += 1
    results = doc.get("results", {})
    for key in required:
        if key not in results:
            print(f"FAIL: {path}: missing result '{key}'")
            failures += 1
        elif not (isinstance(results[key], (int, float)) and results[key] > 0):
            print(f"FAIL: {path}: result '{key}' = {results[key]!r} not > 0")
            failures += 1
    if failures == 0:
        print(f"OK: {path.name}: reports_per_sec="
              f"{results['reports_per_sec']:.0f} "
              f"ns_per_report={results['ns_per_report']:.1f}")

# DTA primitives: beyond the generic rate keys, each primitive and the
# collector-side drain must report a positive rate of its own.
prim_path = out_dir / "BENCH_primitives.json"
if prim_path.exists():
    results = json.loads(prim_path.read_text()).get("results", {})
    for key in ["append_reports_per_sec", "increment_reports_per_sec",
                "postcard_reports_per_sec", "drain_entries_per_sec"]:
        val = results.get(key)
        if not (isinstance(val, (int, float)) and val > 0):
            print(f"FAIL: {prim_path}: result '{key}' = {val!r} not > 0")
            failures += 1

# Storage backends: per load factor, the matched-budget accuracy envelope.
# The sketch is count-min, so estimates can never undershoot, every
# overestimate must sit within the classic e/cols bound's reported rate
# bounds, and the byte budgets must actually match (sketch <= KV, same order).
sb_path = out_dir / "BENCH_storage_backends.json"
if not sb_path.exists():
    print(f"FAIL: {sb_path} was not emitted")
    failures += 1
else:
    results = json.loads(sb_path.read_text()).get("results", {})
    lfs = sorted({k.split("_")[0] for k in results if k.startswith("lf")})
    if len(lfs) < 2:
        print(f"FAIL: {sb_path}: needs >= 2 load factors, got {lfs}")
        failures += 1
    for lf in lfs:
        for key in ["kv_bytes", "sketch_bytes", "kv_exact_rate",
                    "sketch_mean_rel_err", "sketch_p99_rel_err",
                    "sketch_mean_overestimate", "sketch_error_bound",
                    "sketch_within_bound_rate", "sketch_topk_recall",
                    "kv_updates_per_sec", "sketch_updates_per_sec"]:
            val = results.get(f"{lf}_{key}")
            if not isinstance(val, (int, float)):
                print(f"FAIL: {sb_path}: missing '{lf}_{key}'")
                failures += 1
        if failures:
            continue
        if results[f"{lf}_sketch_bytes"] > results[f"{lf}_kv_bytes"]:
            print(f"FAIL: {sb_path}: {lf}: sketch over byte budget")
            failures += 1
        for rate in ["kv_exact_rate", "sketch_within_bound_rate",
                     "sketch_topk_recall"]:
            val = results[f"{lf}_{rate}"]
            if not 0.0 <= val <= 1.0:
                print(f"FAIL: {sb_path}: {lf}_{rate} = {val!r} not a rate")
                failures += 1
        if results[f"{lf}_sketch_mean_rel_err"] < 0:
            print(f"FAIL: {sb_path}: {lf}: count-min undershot the truth")
            failures += 1
    if failures == 0:
        print(f"OK: {sb_path.name}: {len(lfs)} load factors, kv_exact="
              + "/".join(f"{results[f'{lf}_kv_exact_rate']:.0%}"
                         for lf in lfs))

# Fault ablation: same envelope; per fault class a delivery/answered/degraded
# triple. The recovery row must answer everything (degraded, not dropped).
faults_path = out_dir / "BENCH_ablation_faults.json"
faults_required = [
    "healthy_delivery", "healthy_answered",
    "rnic_stall_delivery", "qp_error_delivery",
    "partition_delivery", "corruption_delivery",
    "kill_no_recovery_answered",
    "kill_recovery_answered", "kill_recovery_degraded",
]
if not faults_path.exists():
    print(f"FAIL: {faults_path} was not emitted")
    failures += 1
else:
    doc = json.loads(faults_path.read_text())
    results = doc.get("results", {})
    for key in faults_required:
        val = results.get(key)
        if not (isinstance(val, (int, float)) and 0.0 <= val <= 1.0):
            print(f"FAIL: {faults_path}: '{key}' = {val!r} not a rate")
            failures += 1
    if failures == 0:
        if results["kill_recovery_answered"] < 0.99:
            print("FAIL: recovery plane left queries unanswered: "
                  f"{results['kill_recovery_answered']:.3f}")
            failures += 1
        if results["kill_recovery_degraded"] <= 0.0:
            print("FAIL: takeover answers never carried the degraded flag")
            failures += 1
    if failures == 0:
        print(f"OK: {faults_path.name}: kill answered "
              f"{results['kill_no_recovery_answered']:.1%} -> "
              f"{results['kill_recovery_answered']:.1%} with recovery "
              f"({results['kill_recovery_degraded']:.1%} degraded)")

# Query-plane scaling: per client count, the gateway's served-latency SLO
# quantiles plus the coalesce/cache ledger. Quantiles must be positive for
# every swept row (cache hits record 0 ns, so only an all-hit sweep could
# zero p99 — the epoch tick in the bench guarantees upstream traffic), and
# rates must be rates. The largest swept row must be reported explicitly.
sq_path = out_dir / "BENCH_scaling_query_clients.json"
if not sq_path.exists():
    print(f"FAIL: {sq_path} was not emitted")
    failures += 1
else:
    doc = json.loads(sq_path.read_text())
    results = doc.get("results", {})
    counts = sorted({int(k[1:].split("_")[0]) for k in results
                     if k.startswith("c") and k[1].isdigit()})
    if len(counts) < 2:
        print(f"FAIL: {sq_path}: needs >= 2 client counts, got {counts}")
        failures += 1
    for c in counts:
        for key in ["ops_per_sec", "p50_ns", "p99_ns", "cache_hit_rate",
                    "coalesce_rate", "inflight_highwater"]:
            val = results.get(f"c{c}_{key}")
            if not isinstance(val, (int, float)):
                print(f"FAIL: {sq_path}: missing 'c{c}_{key}'")
                failures += 1
        if failures:
            continue
        for key in ["ops_per_sec", "p99_ns"]:
            if not results[f"c{c}_{key}"] > 0:
                print(f"FAIL: {sq_path}: c{c}_{key} = "
                      f"{results[f'c{c}_{key}']!r} not > 0")
                failures += 1
        if results[f"c{c}_p50_ns"] > results[f"c{c}_p99_ns"]:
            print(f"FAIL: {sq_path}: c{c}: p50 > p99")
            failures += 1
        for rate in ["cache_hit_rate", "coalesce_rate"]:
            val = results[f"c{c}_{rate}"]
            if not 0.0 <= val <= 1.0:
                print(f"FAIL: {sq_path}: c{c}_{rate} = {val!r} not a rate")
                failures += 1
    sustained = results.get("max_clients_sustained")
    if counts and sustained != counts[-1]:
        print(f"FAIL: {sq_path}: max_clients_sustained = {sustained!r} but "
              f"largest swept row is {counts[-1]}")
        failures += 1
    if failures == 0:
        top = counts[-1]
        print(f"OK: {sq_path.name}: sustained {top} clients, "
              f"p99={results[f'c{top}_p99_ns']:.0f}ns, "
              f"cache_hit={results[f'c{top}_cache_hit_rate']:.0%}")

# Collector scale-out: per pool size, aggregate ingest rate plus the
# consistent-hash movement envelope — a single leave may move at most
# 2·K/C keys (the ring's minimal-movement bound; modulo would move ~K),
# re-admission must restore the exact table (restore_mismatch == 0), and
# no bucket the victim didn't own may change owner.
sc_path = out_dir / "BENCH_scaling_collectors.json"
if not sc_path.exists():
    print(f"FAIL: {sc_path} was not emitted")
    failures += 1
else:
    doc = json.loads(sc_path.read_text())
    results = doc.get("results", {})
    counts = sorted({int(k[1:].split("_")[0]) for k in results
                     if k.startswith("c") and k[1].isdigit()})
    if len(counts) < 2:
        print(f"FAIL: {sc_path}: needs >= 2 pool sizes, got {counts}")
        failures += 1
    for c in counts:
        for key in ["aggregate_reports_per_sec", "expected_share",
                    "keys_moved_single_leave", "keys_moved_modulo",
                    "balance_ratio", "restore_mismatch",
                    "movement_violations"]:
            val = results.get(f"c{c}_{key}")
            if not isinstance(val, (int, float)):
                print(f"FAIL: {sc_path}: missing 'c{c}_{key}'")
                failures += 1
        if failures:
            continue
        if not results[f"c{c}_aggregate_reports_per_sec"] > 0:
            print(f"FAIL: {sc_path}: c{c}: ingest rate not > 0")
            failures += 1
        bound = 2.0 * results[f"c{c}_expected_share"]
        moved = results[f"c{c}_keys_moved_single_leave"]
        if moved > bound:
            print(f"FAIL: {sc_path}: c{c}: single leave moved {moved:.0f} "
                  f"keys > minimal-movement bound 2K/C = {bound:.0f}")
            failures += 1
        if moved > results[f"c{c}_keys_moved_modulo"]:
            print(f"FAIL: {sc_path}: c{c}: ring moved more keys than modulo")
            failures += 1
        if results[f"c{c}_balance_ratio"] > 1.25:
            print(f"FAIL: {sc_path}: c{c}: balance ratio "
                  f"{results[f'c{c}_balance_ratio']:.3f} > 1.25")
            failures += 1
        for key in ["restore_mismatch", "movement_violations"]:
            if results[f"c{c}_{key}"] != 0:
                print(f"FAIL: {sc_path}: c{c}_{key} = "
                      f"{results[f'c{c}_{key}']!r} != 0")
                failures += 1
    if results.get("restore_mismatch") != 0:
        print(f"FAIL: {sc_path}: restore_mismatch = "
              f"{results.get('restore_mismatch')!r} != 0")
        failures += 1
    if failures == 0:
        top = counts[-1]
        print(f"OK: {sc_path.name}: {len(counts)} pool sizes up to {top}, "
              f"single leave at {top} moved "
              f"{results[f'c{top}_keys_moved_single_leave']:.0f} keys "
              f"(bound {2 * results[f'c{top}_expected_share']:.0f}), "
              f"restore exact")

# Metrics snapshot: same BenchJson envelope, one flat key per metric (plus
# _count/_sum/_p50/_p90/_p99 expansions for histograms).
metrics_path = out_dir / "METRICS_fabric.json"
metrics_required = [
    "dart_switch0_reports_emitted_total",
    "dart_switches_reports_emitted_total",
    "dart_collector0_rnic_frames_total",
    "dart_collector0_qp_accepted_total",
    "dart_net_delivered_total",
    "dart_monitoring_delivered_total",
    "dart_collector0_query_served_total",
    "dart_collector0_query_resolve_ns_count",
    "dart_operator_queries_sent_total",
]
if not metrics_path.exists():
    print(f"FAIL: {metrics_path} was not emitted")
    failures += 1
else:
    doc = json.loads(metrics_path.read_text())
    for key in ["name", "config", "results"]:
        if key not in doc:
            print(f"FAIL: {metrics_path}: missing top-level key '{key}'")
            failures += 1
    results = doc.get("results", {})
    for key in metrics_required:
        if key not in results:
            print(f"FAIL: {metrics_path}: missing metric '{key}'")
            failures += 1
        elif not isinstance(results[key], (int, float)):
            print(f"FAIL: {metrics_path}: metric '{key}' not numeric")
            failures += 1
    if failures == 0:
        print(f"OK: {metrics_path.name}: {len(results)} metrics, "
              f"reports_emitted="
              f"{results['dart_switches_reports_emitted_total']:.0f}")
sys.exit(1 if failures else 0)
EOF

# Perf ratchet: the headline craft+ingest rate may not regress more than 10%
# below the committed baseline (BENCH_micro_datapath.json at the repo root).
# The headline benchmark is re-measured alone with a longer min_time than the
# smoke runs above, so the gate fails on real regressions rather than
# smoke-run noise. Raising the committed baseline re-tightens the floor.
RATCHET_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR" "$RATCHET_DIR"' EXIT
(cd "$RATCHET_DIR" && "$OLDPWD/$BUILD_DIR/bench/micro_datapath" \
  --benchmark_filter='^BM_CraftPlusIngest$' --benchmark_min_time=0.4)
python3 - "$RATCHET_DIR" <<'EOF'
import json
import sys
from pathlib import Path

committed = json.loads(Path("BENCH_micro_datapath.json").read_text())
fresh = json.loads(
    (Path(sys.argv[1]) / "BENCH_micro_datapath.json").read_text())
base = committed["results"]["reports_per_sec"]
now = fresh["results"]["reports_per_sec"]
floor = 0.9 * base
if now < floor:
    print(f"FAIL: reports_per_sec ratchet: measured {now:,.0f} < floor "
          f"{floor:,.0f} (committed baseline {base:,.0f} - 10%)")
    sys.exit(1)
print(f"OK: reports_per_sec ratchet: measured {now:,.0f} >= floor "
      f"{floor:,.0f} (committed baseline {base:,.0f})")
EOF

echo "bench JSON: clean"
