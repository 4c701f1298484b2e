#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json at minimal size (--smoke 1), untraced
and traced, and fails unless each run passes its correctness checks and
prints exactly the metrics BENCHMARK.json names, with their units.

    python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import os
import subprocess
import sys


def check_result(label, result, metrics, failures):
    """Appends to `failures` what is wrong with one run's result line."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        failures.append(f"{label}: missing {missing} extra {extra} "
                        f"unit mismatch {units}")


def main():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(repo, "perfbench", "run.py"),
                   "--workload", name, "--seed", "7", "--seconds", "0.2",
                   "--trace", str(trace), "--smoke", "1"]
            done = subprocess.run(cmd, cwd=repo, stdout=subprocess.PIPE,
                                  text=True, timeout=600, check=False)
            label = f"{name} --trace {trace}"
            before = len(failures)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{label}: exit {done.returncode}")
            else:
                check_result(label, json.loads(lines[-1]), spec[section], failures)
            print(("ok   " if len(failures) == before else "FAIL ") + label)
    for f in failures:
        print(f"FAIL: {f}")
    print("smoke: clean" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
