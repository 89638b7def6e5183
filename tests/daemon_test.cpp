// Integration tests: the periodic GC daemon — background cadence, live
// mutator coexistence, end-to-end reclamation without explicit GC calls.
#include <gtest/gtest.h>

#include "core/daemon.h"
#include "core/oracle.h"
#include "workload/figures.h"
#include "workload/random_mutator.h"

namespace rgc::core {
namespace {

TEST(Daemon, RunsCollectionsOnSchedule) {
  Cluster cluster;
  cluster.add_process();
  cluster.add_process();
  DaemonConfig cfg;
  cfg.collect_period = 4;
  cfg.snapshot_period = 8;
  GcDaemon daemon{cluster, cfg};
  daemon.run(32);
  // Every lane collects every 4 steps from its staggered first due-point,
  // whether or not its process changed: 2 processes x 32/4.
  EXPECT_EQ(daemon.collections(), 16u);
  // Sweeps back off on idle lanes, but each lane sweeps at least once.
  EXPECT_GE(daemon.sweeps(), 2u);
  EXPECT_GT(daemon.skipped_sweeps(), 0u);
}

TEST(Daemon, CollectsADueLaneTheClockSkippedPast) {
  // A due-point the clock passes outside daemon.step() — here
  // cluster.advance, in a graph store a write's run_until_quiescent — is
  // paid on the daemon's next step, not lost until the period comes round.
  Cluster cluster;
  cluster.add_process();
  DaemonConfig cfg;
  cfg.collect_period = 8;
  GcDaemon daemon{cluster, cfg};
  daemon.run(8);  // steps 1-8: the lane's first collection
  ASSERT_EQ(daemon.collections(), 1u);
  cluster.advance(10);  // steps 9-18, past the lane's next due-point
  daemon.step();        // step 19, which no multiple of 8 lands on
  ASSERT_EQ(cluster.now(), 19u);
  EXPECT_EQ(daemon.collections(), 2u);
}

TEST(Daemon, ReclaimsTheFigure2CycleInTheBackground) {
  Cluster cluster;
  workload::build_figure2(cluster);
  GcDaemon daemon{cluster};
  daemon.run(300);
  EXPECT_EQ(cluster.total_objects(), 0u)
      << "background cadence alone must reclaim the replicated cycle";
  EXPECT_GE(daemon.detections_started(), 1u);
}

TEST(Daemon, BaselineModeReclaimsTheFigure2CycleInTheBackground) {
  // The daemon's sweep installs the snapshot the one detector reads; in
  // baseline mode that detector runs the flat traversal.
  ClusterConfig cfg;
  cfg.mode = DetectorMode::kBaseline;
  Cluster cluster{cfg};
  workload::build_figure2(cluster);
  GcDaemon daemon{cluster};
  daemon.run(300);
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_GE(daemon.detections_started(), 1u);
}

TEST(Daemon, RunsTheClusterPhasedCollectAndSnapshot) {
  Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.add_process();
  workload::MutatorSpec spec;
  spec.seed = 99;
  spec.w_collect = 0;  // the daemon is the only collector
  spec.w_step = 0;     // the daemon drives time
  workload::RandomMutator mutator{cluster, spec};
  GcDaemon daemon{cluster};
  for (int burst = 0; burst < 10; ++burst) {
    mutator.run(20);
    daemon.run(20);
  }
  ASSERT_GT(daemon.collections(), 0u);
  ASSERT_GT(daemon.sweeps(), 0u);
  for (const char* name : {"lgc.mark_us", "lgc.apply_us", "adgc.digest_us",
                           "cycle.summarize_us", "cycle.install_us"}) {
    const util::Histogram* h = cluster.profile().find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
  }
}

TEST(Daemon, SweepAfterCollectionReusesTheCachedSummary) {
  // A collection never summarizes; the summary cache serves snapshots
  // only.  A sweep after a collection that swept garbage must summarize
  // fresh, and a snapshot with no mutation since the previous one reuses
  // its cache — also across a later collection of the unchanged process.
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  cluster.add_root(p, cluster.new_object(p));
  cluster.new_object(p);  // garbage for the collection to sweep
  const auto reused = [&] {
    return cluster.process(p).metrics().get("cycle.summarize_reused");
  };
  cluster.snapshot(p);
  EXPECT_EQ(reused(), 0u);
  DaemonConfig cfg;
  cfg.collect_period = 4;
  cfg.snapshot_period = 64;
  GcDaemon daemon{cluster, cfg};
  daemon.step();  // step 1: a collection sweeps the garbage, then a sweep
  ASSERT_EQ(daemon.collections(), 1u);
  ASSERT_EQ(daemon.sweeps(), 1u);
  EXPECT_EQ(cluster.total_objects(), 1u);
  EXPECT_EQ(reused(), 0u) << "the collection's sweep moved the epoch";
  daemon.run(4);  // step 5: a collection of the unchanged process, no sweep
  ASSERT_EQ(daemon.collections(), 2u);
  ASSERT_EQ(daemon.sweeps(), 1u);
  cluster.snapshot(p);
  EXPECT_EQ(reused(), 1u);
}

TEST(Daemon, NeverHarmsLiveDataWhileMutatorRuns) {
  Cluster cluster;
  for (int i = 0; i < 4; ++i) cluster.add_process();
  workload::MutatorSpec spec;
  spec.seed = 77;
  spec.w_collect = 0;  // the daemon is the only collector
  spec.w_step = 0;     // the daemon drives time
  workload::RandomMutator mutator{cluster, spec};
  GcDaemon daemon{cluster};

  for (int burst = 0; burst < 30; ++burst) {
    mutator.run(20);
    daemon.run(10);
    const auto report = Oracle::analyze(cluster);
    ASSERT_TRUE(report.violations.empty())
        << "burst " << burst << ": " << report.violations.front();
  }
}

TEST(Daemon, ConvergesOnceMutationStops) {
  Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.add_process();
  workload::MutatorSpec spec;
  spec.seed = 1234;
  workload::RandomMutator mutator{cluster, spec};
  mutator.run(300);
  cluster.run_until_quiescent();

  GcDaemon daemon{cluster};
  daemon.run(600);
  const auto report = Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.garbage_objects().empty())
      << report.garbage_objects().size()
      << " dead objects survived the background daemon";
}

TEST(Daemon, ZeroPeriodsAreSanitized) {
  Cluster cluster;
  cluster.add_process();
  DaemonConfig cfg;
  cfg.collect_period = 0;
  cfg.snapshot_period = 0;
  GcDaemon daemon{cluster, cfg};
  daemon.run(5);  // must not divide by zero
  EXPECT_EQ(daemon.collections(), 5u);  // the every-step cadence
  EXPECT_GE(daemon.sweeps(), 1u);
}

}  // namespace
}  // namespace rgc::core
