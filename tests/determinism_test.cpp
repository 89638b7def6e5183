// Determinism of the phase-split parallel GC path (see docs/PERFORMANCE.md):
// the thread count is a pure performance knob.  Mark and summarize run on
// workers; every mutating phase (sweeps, protocol messages, heuristics) is
// applied serially in pid order, so a cluster driven with threads=N must be
// bit-for-bit identical to threads=1 — same reclaims, same cycles, same
// message counts, same JSON report.
//
// This suite is also the TSan workload: scripts/check.sh builds a
// thread-sanitized tree and runs it with threads=8 (see RGC_SANITIZE).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/cluster.h"
#include "core/report.h"
#include "util/thread_pool.h"
#include "workload/mesh.h"

namespace rgc::core {
namespace {

ClusterConfig config_with_threads(
    std::size_t threads,
    gc::FinalizeStrategy finalize = gc::FinalizeStrategy::kNone) {
  ClusterConfig cfg;
  cfg.net.seed = 1234;
  cfg.threads = threads;
  cfg.finalize = finalize;
  return cfg;
}

/// The shared workload: a garbage mesh plus some live survivors, driven
/// through the full phased pipeline (collect_all + snapshot_all +
/// run_full_gc).  `finalizable` adds armed garbage on every process and an
/// armed object that loses its last (remote) anchor midway, so under a
/// resurrecting strategy the serial sweep finalizes what the parallel scan
/// listed, round after round.  Returns that object (kNoObject without
/// `finalizable`).
ObjectId drive(Cluster& cluster, bool finalizable = false) {
  const workload::Mesh mesh =
      workload::build_mesh(cluster, {.processes = 6, .dependencies = 8,
                                     .extra_replicas = 1});
  (void)mesh;
  // A live remote chain that must survive every round.
  const ProcessId p0 = cluster.process_ids().front();
  const ProcessId p1 = cluster.process_ids()[1];
  const ObjectId keeper = cluster.new_object(p0);
  cluster.add_root(p0, keeper);
  cluster.propagate(keeper, p0, p1);
  cluster.run_until_quiescent();
  ObjectId held = kNoObject;
  if (finalizable) {
    for (ProcessId pid : cluster.process_ids()) {
      for (int i = 0; i < 3; ++i) {
        const ObjectId obj = cluster.new_object(pid);
        cluster.process(pid).heap().find(obj)->finalizable = true;
      }
    }
    // held on p0 stays alive through p1's replica of keeper alone.
    held = cluster.new_object(p0);
    cluster.add_ref(p0, keeper, held);
    cluster.propagate(keeper, p0, p1);
    cluster.run_until_quiescent();
    cluster.remove_ref(p0, keeper, held);
    cluster.process(p0).heap().find(held)->finalizable = true;
  }

  cluster.collect_all();
  cluster.run_until_quiescent();
  if (finalizable) cluster.remove_ref(p1, keeper, held);
  cluster.snapshot_all();
  cluster.collect_all();
  cluster.run_until_quiescent();
  cluster.run_full_gc();
  return held;
}

TEST(Determinism, ThreadCountDoesNotChangeResults) {
  struct Shape {
    gc::FinalizeStrategy finalize;
    bool finalizable;
  };
  for (const Shape shape :
       {Shape{gc::FinalizeStrategy::kNone, false},
        Shape{gc::FinalizeStrategy::kNone, true},
        Shape{gc::FinalizeStrategy::kReRegister, true},
        Shape{gc::FinalizeStrategy::kReconstructionFresh, true}}) {
    SCOPED_TRACE(testing::Message()
                 << "strategy " << static_cast<int>(shape.finalize)
                 << (shape.finalizable ? ", finalizable objects" : ""));
    Cluster serial{config_with_threads(1, shape.finalize)};
    Cluster threaded{config_with_threads(8, shape.finalize)};
    const ObjectId held = drive(serial, shape.finalizable);
    drive(threaded, shape.finalizable);

    EXPECT_EQ(serial.total_objects(), threaded.total_objects());
    EXPECT_EQ(serial.now(), threaded.now());
    ASSERT_EQ(serial.cycles_found().size(), threaded.cycles_found().size());
    for (std::size_t i = 0; i < serial.cycles_found().size(); ++i) {
      EXPECT_EQ(serial.cycles_found()[i].targets.size(),
                threaded.cycles_found()[i].targets.size());
    }
    // The strongest check: the full machine-readable report — per-process
    // tables, traffic per message kind, GC counters, histogram buckets —
    // must render to the identical JSON document.
    EXPECT_EQ(make_report(serial).to_json(), make_report(threaded).to_json());
    if (shape.finalizable) {
      // Once unanchored, held is finalized: resurrected for good by a
      // resurrecting strategy, reclaimed otherwise.
      const ProcessId p0 = serial.process_ids().front();
      EXPECT_EQ(serial.process(p0).has_replica(held),
                shape.finalize != gc::FinalizeStrategy::kNone);
    }
  }
}

TEST(Determinism, PhasedCollectMatchesLegacyPerProcessLoop) {
  Cluster phased{config_with_threads(4)};
  Cluster legacy{config_with_threads(1)};

  auto build = [](Cluster& cluster) {
    workload::build_mesh(cluster, {.processes = 4, .dependencies = 6});
    cluster.run_until_quiescent();
  };
  build(phased);
  build(legacy);

  for (int round = 0; round < 3; ++round) {
    phased.collect_all();
    phased.run_until_quiescent();
    // The documented equivalence: collect_all == collect(pid) in pid order.
    for (ProcessId pid : legacy.process_ids()) legacy.collect(pid);
    legacy.run_until_quiescent();
  }
  EXPECT_EQ(make_report(phased).to_json(), make_report(legacy).to_json());
}

TEST(Determinism, QuiescenceTimeoutIsCountedAndReported) {
  ClusterConfig cfg = config_with_threads(1);
  cfg.net.min_delay = 4;
  cfg.net.max_delay = 4;
  Cluster cluster{cfg};
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId obj = cluster.new_object(p0);
  cluster.add_root(p0, obj);
  cluster.propagate(obj, p0, p1);  // in flight for 4 steps

  // Give up before delivery: the truncation must be observable, not silent.
  const std::uint64_t steps = cluster.run_until_quiescent(/*max_steps=*/1).steps;
  EXPECT_EQ(steps, 1u);
  EXPECT_GE(cluster.network().in_flight(), 1u);
  EXPECT_EQ(cluster.network().metrics().get("cluster.quiescence_timeout"), 1u);

  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.network().in_flight(), 0u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool{8};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reuse: the pool must survive many consecutive jobs.
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(17, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  util::ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 13) throw std::runtime_error{"boom"};
                                 }),
               std::runtime_error);
  // ... and stays usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, SerialFallbackRunsInline) {
  util::ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1u);
  int calls = 0;
  pool.parallel_for(5, [&](std::size_t) { ++calls; });  // no data race: inline
  EXPECT_EQ(calls, 5);
}

}  // namespace
}  // namespace rgc::core
