#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the concurrency-sensitive
# tests: the sharded ingest pipeline, the epoch-rotation seqlock, and the
# lock-free primitives under them. A clean run is the tier-1 gate for any
# change to the threaded ingest path.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDART_SANITIZE=thread >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target test_ingest_pipeline test_spsc_ring test_epoch_rotation test_qp

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'IngestPipeline|RotatingCollector|ShardRouting|SpscRing|SeqCount|RelaxedCounter|QueuePair'

echo "TSan: clean"
