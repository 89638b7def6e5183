// Integration tests: the mutator/cycle-detector race (§3.5, Figures 4/5,
// Table 1).  Snapshots taken at different times + concurrent mutations
// must abort detections instead of condemning live data.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/oracle.h"
#include "workload/figures.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::Oracle;

struct RaceFixture : ::testing::Test {
  Cluster cluster;
  workload::Figure4 f{};

  void SetUp() override { f = workload::build_figure4(cluster); }
};

TEST_F(RaceFixture, PaperTimelineAbortsDetection) {
  // Figure 5's timeline: S2, S3, S4 are taken first; the coherence engine
  // then updates X (P1 -> P2), bumping the prop link's UC; P1 finally
  // snapshots (S1).  The CDM pairing outProp(X)@S1 with inProp(X)@S2 sees
  // α+1 vs α and must abort.
  cluster.snapshot(f.p2);  // S2
  cluster.snapshot(f.p3);  // S3
  cluster.snapshot(f.p4);  // S4

  // "...the coherence engine issues an update" along the X prop link, and
  // a remote invocation creates-then-drops a transient root; afterwards
  // the mutator drops its root, so by S1 the cycle *looks* dead at P1.
  cluster.propagate(f.x, f.p1, f.p2);
  cluster.run_until_quiescent();
  cluster.invoke(f.p3, f.x, /*root_steps=*/1);
  cluster.run_until_quiescent();
  cluster.step();                  // the invocation's pins expire
  cluster.step();
  cluster.remove_root(f.p1, f.x);
  cluster.snapshot(f.p1);  // S1 — newest view

  // Detection starts at P2 (the timeline's origin).
  ASSERT_TRUE(cluster.detector(f.p2).start_detection(f.x).has_value());
  cluster.run_until_quiescent();

  EXPECT_TRUE(cluster.cycles_found().empty())
      << "the counter barrier must abort the inconsistent detection";
  EXPECT_GE(cluster.metric_total("cycle.aborts_race"), 1u);
  // Nothing was harmed.
  EXPECT_TRUE(cluster.process(f.p1).heap().contains(f.x));
  EXPECT_TRUE(cluster.process(f.p4).heap().contains(f.y));
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
}

TEST_F(RaceFixture, InvocationAloneTripsTheBarrier) {
  // Only an invocation (IC bump) divides the snapshots.
  cluster.snapshot(f.p2);
  cluster.snapshot(f.p4);
  cluster.snapshot(f.p3);

  cluster.invoke(f.p2, f.y);  // bumps stub IC at P2 / scion IC at P4
  cluster.run_until_quiescent();
  for (int i = 0; i < 4; ++i) cluster.step();  // pins expire
  cluster.remove_root(f.p1, f.x);
  cluster.snapshot(f.p1);

  // P2's snapshot predates the invocation, P4's too... retake P4's so the
  // two ends of the invoked link disagree (stub old, scion new).
  cluster.snapshot(f.p4);

  ASSERT_TRUE(cluster.detector(f.p2).start_detection(f.x).has_value());
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.cycles_found().empty());
  EXPECT_GE(cluster.metric_total("cycle.aborts_race"), 1u);
}

TEST_F(RaceFixture, ConsistentSnapshotsAfterQuiescenceDetectTheDeadCycle) {
  // The same graph, but mutations stop, the root goes away, and *then*
  // everyone snapshots: the cycle is genuinely dead and must be found.
  cluster.remove_root(f.p1, f.x);
  cluster.run_until_quiescent();
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(f.p1, f.x).has_value());
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.cycles_found().size(), 1u);
}

TEST_F(RaceFixture, StaleSnapshotStillShowingRootRefusesToStart) {
  cluster.snapshot_all();  // P1's snapshot still sees the root
  cluster.remove_root(f.p1, f.x);
  EXPECT_FALSE(cluster.detect(f.p1, f.x).has_value())
      << "candidate looks locally reachable in the stale snapshot";
}

TEST_F(RaceFixture, DetectionAgainstSnapshotOlderThanTheGraphIsDropped) {
  // P4 snapshots before the cycle's scion toward it existed; a CDM about
  // that scion finds no matching entity (§3.5.2 rule 1) and is ignored.
  Cluster young;
  const ProcessId q1 = young.add_process();
  const ProcessId q2 = young.add_process();
  const ObjectId a = young.new_object(q1);
  const ObjectId b = young.new_object(q2);
  young.add_root(q1, a);
  young.add_root(q2, b);
  young.snapshot(q2);  // too early: b has no scion yet

  young.propagate(a, q1, q2);
  young.run_until_quiescent();
  workload::make_remote_ref(young, q1, a, q2, b);
  workload::make_remote_ref(young, q2, b, q1, a);
  young.remove_root(q1, a);
  young.remove_root(q2, b);
  workload::settle(young);

  young.snapshot(q1);  // q1 is current, q2 is stale
  ASSERT_TRUE(young.detector(q1).start_detection(a).has_value());
  young.run_until_quiescent();
  EXPECT_TRUE(young.cycles_found().empty());
  EXPECT_GE(young.metric_total("cycle.drops_unknown_entity") +
                young.metric_total("cycle.drops_no_snapshot"),
            1u);
}

TEST_F(RaceFixture, RetryAfterAbortSucceedsOnceQuiet) {
  // An aborted detection is merely wasted work: fresh snapshots later
  // find the (by then genuinely dead) cycle.
  cluster.snapshot(f.p2);
  cluster.snapshot(f.p3);
  cluster.snapshot(f.p4);
  cluster.propagate(f.x, f.p1, f.p2);
  cluster.run_until_quiescent();
  cluster.remove_root(f.p1, f.x);
  cluster.snapshot(f.p1);
  cluster.detector(f.p2).start_detection(f.x);
  cluster.run_until_quiescent();
  ASSERT_TRUE(cluster.cycles_found().empty());

  // Note the update itself clobbered the divergent replica X'@P2 (the
  // coherence overwrite dropped its reference to Y — replicas diverge in
  // this model).  Restore the edge, quiesce, and retry with fresh
  // snapshots: the dead cycle is found.
  cluster.add_ref(f.p2, f.x, f.y);
  cluster.run_until_quiescent();
  cluster.snapshot_all();  // world is quiet now
  ASSERT_TRUE(cluster.detect(f.p1, f.x).has_value());
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.cycles_found().size(), 1u);
}

TEST_F(RaceFixture, TransientInvocationRootBlocksDetectionWhileHeld) {
  cluster.remove_root(f.p1, f.x);
  cluster.invoke(f.p3, f.x, /*root_steps=*/1000);  // long-running call
  cluster.run_until_quiescent();
  cluster.snapshot_all();
  // P3 holds x through the call's register: x is locally reachable there.
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.cycles_found().empty());
  EXPECT_GE(cluster.metric_total("cycle.aborts_live") +
                cluster.metric_total("cycle.live_stub_skips"),
            1u);
}

TEST_F(RaceFixture, FullGcUnderInterleavedMutationNeverBreaksLiveData) {
  // Alternate mutation bursts with full GC rounds; the live cycle must
  // survive every round, and integrity must hold throughout.  Mutations
  // avoid clobbering the divergent replicas: invocations on the cycle plus
  // unrelated allocation/propagation churn.
  for (int round = 0; round < 5; ++round) {
    cluster.invoke(f.p2, f.y);
    cluster.invoke(f.p3, f.x);
    const ObjectId churn = cluster.new_object(f.p1);
    cluster.add_root(f.p1, churn);
    cluster.propagate(churn, f.p1, f.p2);
    cluster.run_until_quiescent();
    cluster.remove_root(f.p1, churn);
    cluster.run_full_gc(4);
    const auto report = Oracle::analyze(cluster);
    ASSERT_TRUE(report.violations.empty()) << report.violations.front();
    ASSERT_TRUE(cluster.process(f.p1).heap().contains(f.x));
    ASSERT_TRUE(cluster.process(f.p4).heap().contains(f.y));
  }
}

}  // namespace
}  // namespace rgc::gc
