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
  # ablation_policies exits non-zero unless the Union Rule keeps live data
  # and every cadence and daemon-schedule run ends clean (no garbage, no
  # audit error).
  echo "== paper checks (fig8, fig9, table2, ablation_policies) =="
  for paper_check in fig8_cdm_per_step fig9_cdm_totals table2_steps_to_detection \
      ablation_policies; do
    ./build-release/bench/"$paper_check" > /dev/null
  done

  echo "== sanitizer build + tests (address,undefined) =="
  run_tree build-asan -DRGC_SANITIZE=address,undefined "$WERROR"

  # ThreadSanitizer pass over the parallel GC phases: build the TSan tree
  # and run the determinism suite, which drives the worker pool with
  # threads=8 (full ctest under TSan is slow; the threaded paths all live
  # behind Cluster::collect_all/snapshot_all, which this suite covers,
  # finalizable shapes included, so the parallel heap scan feeding the
  # serial finalizer runs under TSan too).
  echo "== thread sanitizer build + determinism tests =="
  cmake -B build-tsan -S . -DRGC_SANITIZE=thread "$WERROR"
  cmake --build build-tsan -j "$JOBS" --target determinism_test chaos_test recorder_test \
    mark_reuse_test
  ./build-tsan/tests/determinism_test

  # Mark reuse (DESIGN.md §7b "Mark reuse"): a remote-only mark
  # rewrites the kept result on a pool thread in phase 1, so the suite runs
  # under both sanitizers — its differential pins every collection against
  # a fresh mark, and its big_heap-shaped leg collects on 4 threads.
  echo "== mark reuse suite under ASan/UBSan + TSan =="
  ./build-asan/tests/mark_reuse_test
  ./build-tsan/tests/mark_reuse_test

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

  # Daemon schedule + quiescence (docs/DESIGN.md "Daemon schedule"): the
  # policy-labelled suite under both sanitizers — the daemon's per-lane
  # deferral arithmetic and lane maps, and the quiescence status across
  # kill/restart (dead-pid counting), are exactly where a sanitizer finds
  # the lie.  (The chaos runs above already drive the daemon.)
  echo "== policy suite under ASan/UBSan + TSan =="
  ctest --test-dir build-asan -L policy --output-on-failure -j "$JOBS"
  cmake --build build-tsan -j "$JOBS" --target policy_test
  ./build-tsan/tests/policy_test

  # The benchmark that gates performance claims (perfbench/README.md,
  # BENCHMARK.json) compiles the library from src/ on its own: keep it
  # building warning-free, its statistics self-tested, and three short runs
  # correct.  perfbench exits 0 whatever it finds, so each smoke reads the
  # verdict off its result line (the last line).  The traced
  # spanning_cycles and big_heap passes re-drive run_full_gc and diff the
  # deterministic fingerprints, so a nondeterministic detector, or a
  # nondeterministic parallel mark/scan on the million-object heap, fails
  # here.
  echo "== perfbench build + self-test + graph_store/spanning_cycles/big_heap smokes =="
  cmake -S perfbench -B build-perfbench "$WERROR"
  cmake --build build-perfbench -j "$JOBS"
  ./build-perfbench/perfbench_selftest
  perfbench_smoke() {
    local result
    result=$(./build-perfbench/perfbench --seed 1 --seconds 1 "$@" | tail -n 1)
    echo "$result"
    python3 -c '
import json, sys
r = json.loads(sys.argv[1])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench smoke failed: correct=%s failed=%s"
             % (r.get("correct"), r.get("failed")))
' "$result"
  }
  perfbench_smoke --workload graph_store --trace 0
  perfbench_smoke --workload spanning_cycles --trace 1
  perfbench_smoke --workload big_heap --trace 1
fi

echo "OK"
