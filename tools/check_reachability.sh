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
# It also prints thin reach: each production header that exactly one
# program reaches, with its .hpp+.cpp line count and that program. Every
# .cpp under examples/ and tools/ is a program; the perfbench/src sources
# together are one. Thin reach is reported, not gated.
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


def walk(sources):
    reached = set()
    todo = list(sources)
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
    return reached


def sources(d):
    return [p for p in sorted(Path(d).rglob("*")) if p.suffix in (".cpp", ".hpp")]


# Program name -> its root sources.
programs = {"perfbench/src": sources("perfbench/src")}
for d in ("examples", "tools"):
    for p in sources(d):
        if p.suffix == ".cpp":
            programs[str(p.with_suffix(""))] = [p]
start = [p for d in ("examples", "tools", "perfbench/src") for p in sources(d)]
reached = walk(start)
reached_by = {name: walk(roots) for name, roots in programs.items()}

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


def lines(header):
    pair = [Path(header), Path(header).with_suffix(".cpp")]
    return sum(len(p.read_text().splitlines()) for p in pair if p.is_file())


thin = []
for header in headers:
    owners = [name for name, seen in reached_by.items() if Path(header) in seen]
    if len(owners) == 1:
        thin.append((owners[0], header, lines(header)))
for owner, header, n in sorted(thin):
    print(f"thin reach: {header} ({n} lines) only via {owner}")
print(f"thin reach: {len(thin)} headers, {sum(n for _, _, n in thin)} lines, "
      "each reached by one program")

print(f"walked {len(reached)} files from {len(start)} sources; "
      f"{len(headers)} production headers, {len(ALLOWLIST)} allowlisted")
sys.exit(1 if failures else 0)
EOF

echo "reachability: clean"
