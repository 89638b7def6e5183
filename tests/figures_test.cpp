// Integration tests: the paper's worked examples (Figures 1–3) end to end.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/oracle.h"
#include "gc/lgc/lgc.h"
#include "workload/figures.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::Oracle;
using workload::build_figure1;
using workload::build_figure2;
using workload::build_figure3;

// ---- Figure 1: the Union-Rule safety problem ----------------------------

TEST(Figure1, TopologyMatchesThePaper) {
  Cluster cluster;
  const auto f = build_figure1(cluster);
  // X replicated on P1 and P2; only X@P1 references Z.
  EXPECT_TRUE(cluster.process(f.p1).heap().contains(f.x));
  EXPECT_TRUE(cluster.process(f.p2).heap().contains(f.x));
  EXPECT_TRUE(cluster.process(f.p3).heap().contains(f.z));
  EXPECT_EQ(cluster.process(f.p1).heap().find(f.x)->ref_targets(),
            (std::vector<ObjectId>{f.z}));
  EXPECT_TRUE(cluster.process(f.p2).heap().find(f.x)->refs.empty());
  // X@P2 rooted, X@P1 not.
  EXPECT_TRUE(cluster.process(f.p2).heap().is_root(f.x));
  EXPECT_FALSE(cluster.process(f.p1).heap().is_root(f.x));
}

TEST(Figure1, UnionRulePreservesZ) {
  Cluster cluster;
  const auto f = build_figure1(cluster);
  for (int i = 0; i < 6; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_TRUE(cluster.process(f.p3).heap().contains(f.z))
      << "Z is reachable through replica X@P2 -> (propagation) -> X@P1 -> Z";
  EXPECT_TRUE(cluster.process(f.p1).heap().contains(f.x))
      << "X@P1 must be preserved: X@P2 is live and X could be re-propagated";

  const auto report = Oracle::analyze(cluster);
  EXPECT_TRUE(report.is_live(f.z));
  EXPECT_TRUE(report.violations.empty())
      << (report.violations.empty() ? "" : report.violations.front());
}

TEST(Figure1, ClassicalDgcWouldLoseZ) {
  // The paper's motivating failure: a replication-blind collector treats
  // X@P1 as plain garbage and Z dies while still globally reachable.
  Cluster cluster;
  const auto f = build_figure1(cluster);
  const auto before = Oracle::analyze(cluster);
  ASSERT_TRUE(before.is_live(f.z)) << "Z is globally live via X@P2";

  LgcConfig blind;
  blind.union_rule = false;
  for (int i = 0; i < 4; ++i) {
    for (ProcessId pid : cluster.process_ids()) {
      const auto r = Lgc::collect(cluster.process(pid), blind);
      Adgc::after_collection(cluster.process(pid), r);
    }
    cluster.run_until_quiescent();
  }
  EXPECT_FALSE(cluster.process(f.p3).heap().contains(f.z))
      << "without the Union Rule Z is erroneously reclaimed";
  // The breach: an object that was live beforehand no longer exists
  // anywhere (the oracle's current-state view cannot see it, because the
  // unsafe sweep destroyed the very edge that proved Z's liveness).
  const auto after = Oracle::analyze(cluster);
  EXPECT_FALSE(after.object_exists(f.z))
      << "the last copy of a live object was lost";
}

TEST(Figure1, CycleDetectorNeverCondemnsLiveZ) {
  Cluster cluster;
  const auto f = build_figure1(cluster);
  cluster.snapshot_all();
  // Try every conceivable suspect; nothing may be proven cyclic garbage.
  cluster.detect(f.p1, f.x);
  cluster.detect(f.p3, f.z);
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.cycles_found().empty());
  EXPECT_TRUE(cluster.process(f.p3).heap().contains(f.z));
}

// ---- Figure 2: the 4-process replicated garbage cycle -------------------

struct Figure2Test : ::testing::Test {
  Cluster cluster;
  workload::Figure2 f{};

  void SetUp() override { f = build_figure2(cluster); }

  [[nodiscard]] std::size_t cycle_replicas() const {
    return (cluster.process(f.p1).heap().contains(f.x) ? 1u : 0u) +
           (cluster.process(f.p2).heap().contains(f.x) ? 1u : 0u) +
           (cluster.process(f.p3).heap().contains(f.y) ? 1u : 0u) +
           (cluster.process(f.p4).heap().contains(f.y) ? 1u : 0u);
  }
};

TEST_F(Figure2Test, TopologyMatchesThePaper) {
  EXPECT_EQ(cycle_replicas(), 4u);
  EXPECT_EQ(cluster.process(f.p2).heap().find(f.x)->ref_targets(),
            (std::vector<ObjectId>{f.y}));
  EXPECT_EQ(cluster.process(f.p3).heap().find(f.y)->ref_targets(),
            (std::vector<ObjectId>{f.x}));
  EXPECT_TRUE(cluster.process(f.p1).heap().find(f.x)->refs.empty());
  EXPECT_TRUE(cluster.process(f.p4).heap().find(f.y)->refs.empty());
  // Scions: Y'@P3 -> X@P1 and X'@P2 -> Y@P4.
  EXPECT_TRUE(cluster.process(f.p1).scions().contains(rm::ScionKey{f.p3, f.x}));
  EXPECT_TRUE(cluster.process(f.p4).scions().contains(rm::ScionKey{f.p2, f.y}));
  // The whole thing is garbage per the oracle.
  const auto report = Oracle::analyze(cluster);
  EXPECT_FALSE(report.is_live(f.x));
  EXPECT_FALSE(report.is_live(f.y));
}

TEST_F(Figure2Test, AcyclicProtocolAloneCannotReclaimTheCycle) {
  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_EQ(cycle_replicas(), 4u)
      << "the replicated cycle is invisible to reference-listing + props";
}

TEST_F(Figure2Test, DetectionFromXFollowsThePaperTrace) {
  cluster.snapshot_all();
  const auto id = cluster.detect(f.p1, f.x);
  ASSERT_TRUE(id.has_value());
  const std::uint64_t steps = cluster.run_until_quiescent().steps;
  ASSERT_EQ(cluster.cycles_found().size(), 1u);

  // One CDM per hop P1->P2->P4->P3->P1 (the paper's Alg1..Alg4).
  EXPECT_EQ(cluster.network().total_sent("CDM"), 4u);
  EXPECT_GE(steps, 4u);

  const Cdm& verdict = cluster.cycles_found().front();
  EXPECT_EQ(verdict.candidate, (Replica{f.x, f.p1}));
  EXPECT_TRUE(verdict.cycle_complete());
  // All four replicas were visited.
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.x, f.p1})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.x, f.p2})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.y, f.p3})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.y, f.p4})));
}

TEST_F(Figure2Test, CutAndReclaimEliminateTheWholeCycle) {
  cluster.snapshot_all();
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.cycles_found().size(), 1u);
  // The cut deleted the scion for X@P1; acyclic rounds finish the job.
  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_EQ(cycle_replicas(), 0u);
  const auto report = Oracle::analyze(cluster);
  EXPECT_TRUE(Oracle::fully_collected(cluster, report));
}

TEST_F(Figure2Test, DetectionFromAnyCycleMemberSucceeds) {
  cluster.snapshot_all();
  const auto id = cluster.detect(f.p4, f.y);  // start at Y instead of X
  ASSERT_TRUE(id.has_value());
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.cycles_found().size(), 1u);
}

TEST_F(Figure2Test, RunFullGcDrivesEverythingAutomatically) {
  const auto stats = cluster.run_full_gc();
  EXPECT_GE(stats.cycles_found, 1u);
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_TRUE(Oracle::fully_collected(cluster, Oracle::analyze(cluster)));
}

TEST_F(Figure2Test, LiveCycleIsNeverCondemned) {
  cluster.add_root(f.p2, f.x);  // resurrect: the cycle is live again
  cluster.snapshot_all();
  EXPECT_FALSE(cluster.detect(f.p2, f.x).has_value())
      << "a locally reachable candidate must refuse to start";
  cluster.detect(f.p1, f.x);
  cluster.detect(f.p4, f.y);
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.cycles_found().empty());
  EXPECT_EQ(cycle_replicas(), 4u);
}

// ---- Figure 3: six processes, two detection paths ------------------------

struct Figure3Test : ::testing::Test {
  Cluster cluster;
  workload::Figure3 f{};

  void SetUp() override { f = build_figure3(cluster); }
};

TEST_F(Figure3Test, TopologyMatchesThePaper) {
  // Replicas: B on P1+P2, F on P6+P3+P5, I on P5+P4.
  EXPECT_TRUE(cluster.process(f.p1).heap().contains(f.b));
  EXPECT_TRUE(cluster.process(f.p2).heap().contains(f.b));
  EXPECT_TRUE(cluster.process(f.p6).heap().contains(f.f));
  EXPECT_TRUE(cluster.process(f.p3).heap().contains(f.f));
  EXPECT_TRUE(cluster.process(f.p5).heap().contains(f.f));
  EXPECT_TRUE(cluster.process(f.p5).heap().contains(f.i));
  EXPECT_TRUE(cluster.process(f.p4).heap().contains(f.i));
  // Divergence: only F''@P5 references I.
  EXPECT_EQ(cluster.process(f.p5).heap().find(f.f)->ref_targets(),
            (std::vector<ObjectId>{f.i}));
  EXPECT_TRUE(cluster.process(f.p6).heap().find(f.f)->refs.empty());
  EXPECT_TRUE(cluster.process(f.p3).heap().find(f.f)->refs.empty());
  // Nothing is globally reachable.
  const auto report = core::Oracle::analyze(cluster);
  EXPECT_TRUE(report.live_objects.empty());
}

TEST_F(Figure3Test, DetectionFromCFindsTheCycle) {
  cluster.snapshot_all();
  const auto id = cluster.detect(f.p1, f.c);
  ASSERT_TRUE(id.has_value());
  cluster.run_until_quiescent();
  ASSERT_GE(cluster.cycles_found().size(), 1u);
  const Cdm& verdict = cluster.cycles_found().front();
  EXPECT_EQ(verdict.candidate, (Replica{f.c, f.p1}));
  // The winning track visited the F-family replicas (the paper's track a).
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.f, f.p6})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.f, f.p5})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.i, f.p5})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.i, f.p4})));
}

TEST_F(Figure3Test, BothPathsAreExercised) {
  cluster.snapshot_all();
  cluster.detect(f.p1, f.c);
  cluster.run_until_quiescent();
  // Two CDMs left P2 in the same step (the fork of §3.4 step #5-7): both
  // E@P3 and I@P5 received one.
  EXPECT_GE(cluster.process(f.p3).metrics().get("cycle.cdms_received"), 1u);
  EXPECT_GE(cluster.process(f.p5).metrics().get("cycle.cdms_received"), 1u);
  // At least one track died without a verdict (the paper's track b) while
  // the detection as a whole succeeded.
  EXPECT_GE(cluster.cycles_found().size(), 1u);
}

TEST_F(Figure3Test, WholeGraphReclaimedAfterDetection) {
  const auto stats = cluster.run_full_gc();
  EXPECT_GE(stats.cycles_found, 1u);
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_TRUE(
      core::Oracle::fully_collected(cluster, core::Oracle::analyze(cluster)));
}

TEST_F(Figure3Test, RootingEMakesEverythingDownstreamSafe) {
  cluster.add_root(f.p3, f.e);
  cluster.snapshot_all();
  cluster.detect(f.p1, f.c);
  cluster.run_until_quiescent();
  // E live => F' live => F live => ... the cycle through C is still
  // garbage? No: C -> B -> B' -> E is the only path into E; E's liveness
  // does not keep C alive, but the detection through E must abort while
  // any detection avoiding E may still close.  Whatever the verdict, the
  // live part must survive a full GC.
  cluster.run_full_gc();
  EXPECT_TRUE(cluster.process(f.p3).heap().contains(f.e));
  const auto report = core::Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
}

}  // namespace
}  // namespace rgc::gc
