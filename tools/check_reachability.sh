#!/usr/bin/env bash
# Reachability gate: no production header that only benches and tests use.
#
# Walks the `#include "..."` graph from every C++ source under examples/,
# tools/ and perfbench/src/. An include resolves against the including
# file's directory, then src/, then bench/ (the include paths those targets
# build with). For each header it reaches under src/, the .cpp beside it is
# walked too. It fails when
#
#   1. a header under src/ outside src/check/ is neither reached nor on the
#      allowlist below (production code nothing but benches or tests uses:
#      move it beside its bench, into src/check/, or delete it);
#   2. an allowlisted header is reached (drop it from the list) or gone.
#
# So the allowlist can only shrink. src/check/ holds the reference twins
# that only tests use and is not gated.
#
# Usage: tools/check_reachability.sh
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - <<'EOF'
import re
import sys
from pathlib import Path

# Headers under src/ that no example, tool or perfbench source reaches yet.
ALLOWLIST = {
    "src/baseline/confluo_like.hpp",
    "src/baseline/cost_model.hpp",
    "src/baseline/dpdk_stack.hpp",
    "src/baseline/kafka_like.hpp",
    "src/baseline/report_gen.hpp",
    "src/baseline/socket_stack.hpp",
    "src/common/table.hpp",
    "src/core/adaptive.hpp",
    "src/core/coding.hpp",
    "src/core/reporter.hpp",
    "src/core/spread.hpp",
}

include_re = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
roots = [Path("src"), Path("bench")]


def resolve(including, name):
    for base in [including.parent] + roots:
        candidate = base / name
        if candidate.is_file():
            return Path(candidate.resolve().relative_to(Path.cwd()))
    return None


start = [
    p
    for d in ("examples", "tools", "perfbench/src")
    for p in sorted(Path(d).rglob("*"))
    if p.suffix in (".cpp", ".hpp")
]
reached = set()
todo = list(start)
while todo:
    path = todo.pop()
    if path in reached:
        continue
    reached.add(path)
    if path.parts[0] == "src" and path.suffix == ".hpp":
        beside = path.with_suffix(".cpp")
        if beside.is_file():
            todo.append(beside)
    for name in include_re.findall(path.read_text()):
        target = resolve(path, name)
        if target is not None:
            todo.append(target)

failures = 0


def fail(msg):
    global failures
    failures += 1
    print(f"FAIL: {msg}")


headers = sorted(
    str(p) for p in Path("src").rglob("*.hpp") if p.parts[1] != "check"
)
reached_names = {str(p) for p in reached}
for header in headers:
    if header in reached_names and header in ALLOWLIST:
        fail(f"{header} is reached now: drop it from the allowlist")
    elif header not in reached_names and header not in ALLOWLIST:
        fail(f"{header} is reached from no example, tool or perfbench "
             "source: move it beside its bench, into src/check/, or delete it")
for header in sorted(ALLOWLIST - set(headers)):
    fail(f"{header} is allowlisted but gone: drop it from the allowlist")

print(f"walked {len(reached)} files from {len(start)} sources; "
      f"{len(headers)} production headers, {len(ALLOWLIST)} allowlisted")
sys.exit(1 if failures else 0)
EOF

echo "reachability: clean"
