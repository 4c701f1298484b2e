#!/usr/bin/env bash
# Documentation drift gate. Validates, across every tracked markdown file:
#
#   1. intra-repo markdown links — [text](relative/path) must resolve to a
#      file or directory in the repo (anchors stripped; http(s) ignored);
#   2. backticked repo paths — `src/...`, `tools/...`, `tests/...`,
#      `bench/...`, `examples/...`, `docs/...` must name something that
#      exists (a file, a directory, or a source behind a built binary);
#   3. fenced ```sh blocks — every build/tools/<x> or build/bench/<x>
#      binary and tools/<x>.sh script a reader is told to run must have a
#      corresponding source in the tree.
#
# This is the gate that keeps prose honest: a renamed bench, a dropped
# tool, or a moved header fails CI instead of rotting in the docs.
#
# Usage: tools/check_docs.sh
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - <<'EOF'
import fnmatch
import os
import re
import subprocess
import sys
from pathlib import Path


def markdown_files():
    """The markdown files git lists (tracked or untracked, not ignored). In a
    tree without git metadata, such as an exported archive, every *.md found
    by walking the tree outside the directories .gitignore names."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-co", "--exclude-standard", "*.md"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        return [Path(p) for p in listed]
    except (OSError, subprocess.CalledProcessError):
        pass
    ignored_dirs = [
        line.strip().rstrip("/")
        for line in Path(".gitignore").read_text().splitlines()
        if line.strip().endswith("/") and not line.startswith("#")
    ]
    found = []
    for root, dirs, files in os.walk("."):
        dirs[:] = [
            d for d in dirs
            if d != ".git"
            and not any(fnmatch.fnmatch(d, pat) for pat in ignored_dirs)
        ]
        found += [Path(root, f) for f in files if f.endswith(".md")]
    return found


md_files = sorted(
    p for p in markdown_files()
    # Research-context notes, not product docs: may cite external artifacts.
    if p.name not in {"PAPERS.md", "SNIPPETS.md"}
)

failures = 0


def fail(doc, line_no, msg):
    global failures
    failures += 1
    print(f"FAIL: {doc}:{line_no}: {msg}")


def path_exists(doc, target):
    """A doc reference resolves if it exists as written (relative to the
    doc or the repo root) or as a source file behind a built binary."""
    bases = [doc.parent, Path(".")]
    suffixes = ["", ".hpp", ".cpp", ".sh"]
    # `core/control.hpp`-style references omit the src/ prefix.
    prefixes = ["", "src/"]
    for base in bases:
        for prefix in prefixes:
            for suffix in suffixes:
                if (base / (prefix + str(target) + suffix)).exists():
                    return True
    # build/bench/foo and build/tools/foo exist once built; their sources
    # are the stable proof.
    m = re.fullmatch(r"(?:build/)?(bench|tools)/([A-Za-z0-9_]+)", str(target))
    if m:
        d, name = m.groups()
        return any((Path(d) / f"{name}{s}").exists() for s in (".cpp", ".sh"))
    return False


link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
tick_re = re.compile(r"`([^`\n]+)`")
repo_dirs = ("src/", "tools/", "tests/", "bench/", "examples/", "docs/")

for doc in md_files:
    in_fence = False
    fence_lang = ""
    for line_no, line in enumerate(doc.read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            fence_lang = stripped[3:].strip() if in_fence else ""
            continue

        if in_fence:
            # 3. Commands readers are told to run must exist in the tree.
            if fence_lang in {"sh", "bash", "shell"}:
                for tok in re.findall(
                    r"(?:build/)?(?:tools|bench)/[A-Za-z0-9_./]+", line
                ):
                    tok = tok.rstrip(".")
                    if not path_exists(doc, tok):
                        fail(doc, line_no, f"sh block names missing '{tok}'")
            continue

        # 1. Relative markdown links.
        for target in link_re.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            plain = target.split("#", 1)[0]
            if plain and not path_exists(doc, plain):
                fail(doc, line_no, f"broken link '{target}'")

        # 2. Backticked repo paths (first path-ish token of the span, so
        # `tools/check_docs.sh [args]`-style usage lines still resolve).
        for span in tick_re.findall(line):
            tok = span.split()[0] if span.split() else ""
            if not tok.startswith(repo_dirs):
                continue
            if not re.fullmatch(r"[A-Za-z0-9_./*-]+", tok):
                continue
            if "*" in tok:  # globs like bench/ablation_* document families
                if not list(Path(".").glob(tok)):
                    fail(doc, line_no, f"glob '{tok}' matches nothing")
                continue
            if not path_exists(doc, tok.rstrip("/").rstrip(".")):
                fail(doc, line_no, f"stale path '{tok}'")

print(f"checked {len(md_files)} markdown files")
sys.exit(1 if failures else 0)
EOF

echo "docs: clean"
