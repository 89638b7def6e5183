#!/usr/bin/env bash
# Tier-1 verify plus Release and sanitizer passes.
#
#   scripts/check.sh            # plain build + ctest, then Release, ASan/UBSan, ...
#   scripts/check.sh --fast     # plain build + ctest only
#
# The sanitizer pass uses the RGC_SANITIZE CMake option (see top-level
# CMakeLists.txt) in a separate build tree so the plain tree stays warm.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
# The build is warning-free; every tree below keeps it that way.
WERROR=-DCMAKE_CXX_FLAGS=-Werror

run_tree() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "== plain build + tests =="
run_tree build "$WERROR"

if [[ "${1:-}" != "--fast" ]]; then
  # Optimized builds see warnings the default RelWithDebInfo tree does not
  # (GCC 12's -Wrestrict on inlined string concatenation); keep them out.
  echo "== Release build + tests =="
  run_tree build-release -DCMAKE_BUILD_TYPE=Release "$WERROR"

  # The paper comparison (Figs. 8/9, Table 2) from the optimized tree:
  # fig8 and table2 exit non-zero when a reproduced claim fails (same step
  # to within one, fewer CDMs); fig9 must simply run to completion.
  echo "== paper checks (fig8, fig9, table2) =="
  for paper_check in fig8_cdm_per_step fig9_cdm_totals table2_steps_to_detection; do
    ./build-release/bench/"$paper_check" > /dev/null
  done

  echo "== sanitizer build + tests (address,undefined) =="
  run_tree build-asan -DRGC_SANITIZE=address,undefined "$WERROR"

  # ThreadSanitizer pass over the parallel GC phases: build the TSan tree
  # and run the determinism suite, which drives the worker pool with
  # threads=8 (full ctest under TSan is slow; the threaded paths all live
  # behind Cluster::collect_all/snapshot_all, which this suite covers).
  echo "== thread sanitizer build + determinism tests =="
  cmake -B build-tsan -S . -DRGC_SANITIZE=thread "$WERROR"
  cmake --build build-tsan -j "$JOBS" --target determinism_test chaos_test recorder_test
  ./build-tsan/tests/determinism_test

  # Flight-recorder legs (docs/OBSERVABILITY.md "Flight recorder &
  # replay"): the obs-labelled recorder suite under both sanitizers —
  # byte-identical recordings across thread counts is exactly the property
  # TSan-visible races would break — then a record-then-replay pass with
  # the CLI, which exits non-zero unless the replay is byte-identical.
  echo "== recorder suite under ASan/UBSan + TSan =="
  ./build-asan/tests/recorder_test
  ./build-tsan/tests/recorder_test
  echo "== record-then-replay divergence check =="
  REC_TMP=$(mktemp -t rgc_check_XXXX.rgcrec)
  trap 'rm -f "$REC_TMP"' EXIT
  ./build-asan/examples/example_sim_cli --record "$REC_TMP" --processes 16 --seed 2024
  ./build-asan/examples/example_sim_cli --replay "$REC_TMP" --threads 4

  # Chaos under both sanitizer trees: every chaos leg audits every step
  # with the worker pool at 4 threads, under both daemon schedules, and
  # fails on any auditor ERROR.  The fault-chaos legs (crash/restart/
  # partition FaultPlans under message loss — docs/FAULTS.md) are part of
  # it; the fault suites are also selectable in any tree with
  # `ctest -L faults`.
  echo "== chaos under ASan/UBSan =="
  ./build-asan/tests/chaos_test
  echo "== chaos under TSan =="
  ./build-tsan/tests/chaos_test
  echo "== recovery suite under ASan/UBSan =="
  ./build-asan/tests/recovery_test

  # ~100k-object scale smoke under ASan (`ctest -L scale`): arena slot
  # reuse, image/summary codecs and the discrete-event scheduler at
  # populations where off-by-one slot bookkeeping actually bites.
  echo "== scale smoke under ASan/UBSan =="
  ctest --test-dir build-asan -L scale --output-on-failure -j "$JOBS"

  # Cycle cost ledger (docs/OBSERVABILITY.md "Cycle cost ledger"): the
  # ledger-labelled suite under ASan — the hop/slot arrays are fixed-size
  # rings, exactly where out-of-bounds indexing would hide — and the
  # determinism legs (byte-identical JSONL across threads=1 vs 8 and
  # event-skip vs per-step schedules) re-checked explicitly so a ledger
  # nondeterminism can never ship behind a filtered ctest run.
  echo "== ledger suite under ASan/UBSan =="
  ctest --test-dir build-asan -L ledger --output-on-failure -j "$JOBS"
  echo "== ledger determinism (threads x event-skip) =="
  ./build/tests/ledger_test \
    --gtest_filter='LedgerTest.JsonlByteIdenticalAcrossThreadCounts:LedgerTest.JsonlByteIdenticalAcrossSchedules:LedgerTest.DecompositionIdentityHoldsOnJitteredMeshes'

  # Adaptive scheduling + decentralized quiescence (docs/DESIGN.md
  # "Adaptive deferred detection"): the policy-labelled suite under both
  # sanitizers — the termination detector's per-account arithmetic and the
  # daemon's lane maps are exactly where a sanitizer finds the lie.  (The
  # chaos runs above already cover both daemon schedules.)
  echo "== policy suite under ASan/UBSan + TSan =="
  ctest --test-dir build-asan -L policy --output-on-failure -j "$JOBS"
  cmake --build build-tsan -j "$JOBS" --target policy_test
  ./build-tsan/tests/policy_test

  # The benchmark that gates performance claims (perfbench/README.md,
  # BENCHMARK.json) compiles the library from src/ on its own: keep it
  # building warning-free, its statistics self-tested, and one short
  # graph_store run exiting 0.
  echo "== perfbench build + self-test + graph_store smoke =="
  cmake -S perfbench -B build-perfbench "$WERROR"
  cmake --build build-perfbench -j "$JOBS"
  ./build-perfbench/perfbench_selftest
  ./build-perfbench/perfbench --workload graph_store --seed 1 --seconds 1 \
    --trace 0 | tail -n 1
fi

echo "OK"
