#!/usr/bin/env bash
# Sanitizer CI matrix (docs/TESTING.md). Two presets over the existing
# -DDART_SANITIZE build switch:
#
#   asan   AddressSanitizer + UBSan over the whole tier-1 suite — the
#          memory-safety gate for the parser/ingest surface the fuzz and
#          property suites hammer.
#   tsan   ThreadSanitizer over the concurrency-sensitive suites, including
#          the concurrent-pipeline differential property (PropPipeline),
#          which drives real feeder/shard threads every case, and the query
#          gateway's session/cache paths (the ResultCache hammer drives the
#          sharded LRU from 8 threads) and the consistent-hash collector
#          ring's wait-free lookup-vs-rebuild snapshot swap
#          (CollectorRingHammer). Superset of tools/check_tsan.sh's
#          target list.
#   all    both, in that order.
#
# Usage: tools/check_sanitize.sh [asan|tsan|all] [build-dir-suffix]
#   build dirs default to build-asan / build-tsan.
set -euo pipefail

cd "$(dirname "$0")/.."
PRESET="${1:-all}"
SUFFIX="${2:-}"

run_asan() {
  local dir="build-asan${SUFFIX}"
  echo "== asan: AddressSanitizer+UBSan, full tier-1 suite (${dir}) =="
  cmake -B "$dir" -S . -DDART_SANITIZE=address >/dev/null
  cmake --build "$dir" -j "$(nproc)" >/dev/null
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir "$dir" --output-on-failure -L tier1 -j "$(nproc)"
  # SIMD dispatch parity: the tier-1 pass above ran the CRC/hash parity and
  # burst-ingest property suites with the SIMD kernels active (when the host
  # has them); run them again with DART_NO_SIMD=1 so UBSan+ASan watch the
  # forced-scalar arm of every dispatched kernel too. PropRoce rides the
  # RNIC's iCRC, which runs on the dispatched CRC kernel.
  echo "== asan: forced-scalar dispatch (DART_NO_SIMD=1) =="
  DART_NO_SIMD=1 \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir "$dir" --output-on-failure \
      -R 'CrcParity|XxBatchParity|HashFamilyBatch|PropBurst|PropWire|PropCraft|PropRoce'
  echo "asan: clean"
}

run_tsan() {
  local dir="build-tsan${SUFFIX}"
  echo "== tsan: ThreadSanitizer, concurrency suites (${dir}) =="
  cmake -B "$dir" -S . -DDART_SANITIZE=thread >/dev/null
  cmake --build "$dir" -j "$(nproc)" \
    --target test_ingest_pipeline test_spsc_ring test_epoch_rotation \
             test_qp test_prop_pipeline test_cell_sheet \
             test_cas_insert_store test_prop_backend test_result_cache \
             test_gateway test_collector_ring >/dev/null
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir "$dir" --output-on-failure \
      -R 'IngestPipeline|RotatingCollector|ShardRouting|SpscRing|SeqCount|RelaxedCounter|QueuePair|PropPipeline|CasInsertStore|FlowCounterArrayHammer|CountMinSketchHammer|DisciplinedReadsNeverTorn|ResultCache|GatewayFixture|CollectorRingHammer'
  echo "tsan: clean"
}

case "$PRESET" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *)
    echo "usage: tools/check_sanitize.sh [asan|tsan|all] [build-dir-suffix]" >&2
    exit 2
    ;;
esac

echo "sanitize (${PRESET}): clean"
