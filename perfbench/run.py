#!/usr/bin/env python3
"""Build and run the end-to-end DART benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the DART libraries it
needs from src/) in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. The last line of stdout is
the result JSON printed by the benchmark binary. With --trace 1 the spans of
the last traced episode are also written to .bench_out/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("fabric_int", "query_mix")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(repo, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        fail("no DART sources next to perfbench/ (src/CMakeLists.txt missing)")
    source = os.path.join(repo, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "dart_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(cmd)} failed: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    binary = os.path.join(build_dir, "dart_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                        help="minimal sizes (perfbench/smoke_test.py)")
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(repo, target, "perfbench")
    binary = build(repo, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke)]
    if args.trace:
        out_dir = os.path.join(repo, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
