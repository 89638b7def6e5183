// GC daemon schedule + quiescence (`ctest -L policy`):
// run_until_quiescent's status (steps, in-flight count, dead pids) and its
// registered counter and gauges on the drain, truncation, kill, partition
// and restart paths; the sweep lane's Pony-style backoff (skip, ceiling,
// productivity reset) beside the fixed collection cadence; and the
// daemon's determinism — byte-identical flight recordings across
// worker-pool widths and across event-skip vs per-step schedules.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/daemon.h"
#include "core/oracle.h"
#include "obs/recorder.h"
#include "util/metrics.h"
#include "workload/figures.h"
#include "workload/random_mutator.h"

namespace rgc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::DaemonConfig;
using core::GcDaemon;

// ---- Quiescence: run_until_quiescent's status -----------------------------

TEST(Quiescence, DrainsAndReportsTheNetworksInFlightCount) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId x = cluster.new_object(p1);
  cluster.add_root(p1, x);
  cluster.propagate(x, p1, p2);
  ASSERT_FALSE(cluster.network().idle());
  const auto status = cluster.run_until_quiescent();
  EXPECT_GT(status.steps, 0u);
  EXPECT_TRUE(status.quiescent);
  EXPECT_EQ(status.in_flight, 0u);
  EXPECT_EQ(status.in_flight, cluster.network().in_flight());
  EXPECT_EQ(status.dead, 0u);
  const util::Metrics& nm = cluster.network().metrics();
  EXPECT_EQ(nm.get("cluster.quiescence_timeout"), 0u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_truncated"), 0u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_dead_pids"), 0u);
  // Already idle: the next call returns at once.
  const auto again = cluster.run_until_quiescent();
  EXPECT_EQ(again.steps, 0u);
  EXPECT_TRUE(again.quiescent);
}

TEST(Quiescence, TruncationReportsCounterAndGauges) {
  ClusterConfig cfg;
  cfg.net.min_delay = 40;
  cfg.net.max_delay = 40;
  Cluster cluster{cfg};
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId x = cluster.new_object(p1);
  cluster.add_root(p1, x);
  cluster.propagate(x, p1, p2);  // due in 40 steps — cannot drain in 5
  const auto status = cluster.run_until_quiescent(5);
  EXPECT_EQ(status.steps, 5u);
  EXPECT_FALSE(status.quiescent);
  EXPECT_GT(status.in_flight, 0u);
  EXPECT_EQ(status.in_flight, cluster.network().in_flight());
  EXPECT_EQ(status.dead, 0u);
  const util::Metrics& nm = cluster.network().metrics();
  EXPECT_EQ(nm.get("cluster.quiescence_timeout"), 1u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_truncated"), 1u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_dead_pids"), 0u);
  // Let it finish; the gauge clears and the counter keeps its one timeout.
  const auto rest = cluster.run_until_quiescent();
  EXPECT_TRUE(rest.quiescent);
  EXPECT_EQ(rest.in_flight, 0u);
  EXPECT_EQ(nm.get("cluster.quiescence_timeout"), 1u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_truncated"), 0u);
}

TEST(Quiescence, DeadCountsDownPidsAcrossKillRestartPartition) {
  ClusterConfig cfg;
  cfg.lease_timeout = 32;
  Cluster cluster{cfg};
  std::vector<ProcessId> pids;
  for (int i = 0; i < 4; ++i) pids.push_back(cluster.add_process());
  workload::MutatorSpec spec;
  spec.seed = 99;
  workload::RandomMutator mutator{cluster, spec};
  mutator.run(120);
  const util::Metrics& nm = cluster.network().metrics();

  // A crashed pid's traffic is purged, so it never holds up quiescence.
  cluster.kill(pids[1]);
  auto status = cluster.run_until_quiescent();
  EXPECT_TRUE(status.quiescent);
  EXPECT_EQ(status.in_flight, cluster.network().in_flight());
  EXPECT_EQ(status.dead, 1u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_dead_pids"), 1u);

  cluster.partition({{pids[0]}, {pids[2], pids[3]}});
  mutator.run(60);
  status = cluster.run_until_quiescent();
  EXPECT_TRUE(status.quiescent);
  EXPECT_EQ(status.in_flight, cluster.network().in_flight());
  EXPECT_EQ(status.dead, 1u);
  cluster.heal();

  cluster.restart(pids[1]);
  mutator.run(60);
  status = cluster.run_until_quiescent();
  EXPECT_TRUE(status.quiescent);
  EXPECT_EQ(status.in_flight, cluster.network().in_flight());
  EXPECT_EQ(status.dead, 0u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_dead_pids"), 0u);

  // The same pid down a second time counts once again.
  cluster.kill(pids[1]);
  mutator.run(60);
  status = cluster.run_until_quiescent();
  EXPECT_TRUE(status.quiescent);
  EXPECT_EQ(status.in_flight, cluster.network().in_flight());
  EXPECT_EQ(status.dead, 1u);
  EXPECT_EQ(nm.gauge_value("cluster.quiescence_dead_pids"), 1u);
}

// ---- Daemon schedule mechanics ---------------------------------------------

TEST(AdaptivePolicy, QuiescentClusterBacksOffToTheCeiling) {
  Cluster cluster;
  cluster.add_process();
  cluster.add_process();
  DaemonConfig cfg;
  GcDaemon daemon{cluster, cfg};
  daemon.run(600);  // nothing ever mutates: sweep lanes must decay to max
  const util::Metrics& nm = cluster.network().metrics();
  EXPECT_GT(daemon.skipped_sweeps(), 0u);
  EXPECT_EQ(nm.gauge_value("daemon.deferred_budget"),
            8 * cfg.snapshot_period);
  // Collections do not back off: 2 processes x 600/8, each a reused mark
  // after the first (the heaps never change).
  EXPECT_EQ(daemon.collections(), 2 * 600 / cfg.collect_period);
  EXPECT_EQ(cluster.metric_total("lgc.marks_reused"),
            daemon.collections() - 2);
  // The accessors read the registered counters (observability).
  EXPECT_EQ(nm.get("daemon.collections"), daemon.collections());
  EXPECT_EQ(nm.get("daemon.sweeps"), daemon.sweeps());
  EXPECT_EQ(nm.get("daemon.detections_started"), daemon.detections_started());
  EXPECT_EQ(nm.get("daemon.skipped_sweeps"), daemon.skipped_sweeps());
}

TEST(AdaptivePolicy, ProductiveWorkResetsTheDeferral) {
  // Figure 2's replicated cycle: detections fire, the cycle is proven, and
  // the policy must converge to zero objects with detections under budget.
  Cluster cluster;
  workload::build_figure2(cluster);
  DaemonConfig cfg;
  cfg.detect_budget = 1;  // tightest budget still converges
  GcDaemon daemon{cluster, cfg};
  daemon.run(300);
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_GE(daemon.detections_started(), 1u);
  const auto report = core::Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
}

TEST(AdaptivePolicy, BudgetPrioritizesOldestSuspects) {
  // Three objects on p1 anchored only by p2's rooted holder: x (lowest id)
  // becomes remote last, so it is the youngest suspect; y and z share the
  // oldest age.  A budget of 1 must start y — the oldest, with id order
  // breaking the y/z tie — and nothing else: budgeted starts never queue.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId x = cluster.new_object(p1);
  const ObjectId y = cluster.new_object(p1);
  const ObjectId z = cluster.new_object(p1);
  const ObjectId holder = cluster.new_object(p2);
  cluster.add_root(p2, holder);
  cluster.add_root(p1, x);  // kept live locally until it turns remote
  workload::make_remote_ref(cluster, p2, holder, p1, y);
  workload::make_remote_ref(cluster, p2, holder, p1, z);
  workload::settle(cluster, 3);
  workload::make_remote_ref(cluster, p2, holder, p1, x);
  cluster.remove_root(p1, x);
  workload::settle(cluster, 2);

  const gc::SuspicionAgeTracker& tracker = cluster.suspicion_tracker(p1);
  ASSERT_GT(tracker.age(x), 0u);
  ASSERT_GT(tracker.age(y), tracker.age(x));
  ASSERT_EQ(tracker.age(z), tracker.age(y));
  cluster.snapshot(p1);
  const std::set<ObjectId> suspects = cluster.suspects(p1);
  ASSERT_TRUE(suspects.contains(x) && suspects.contains(y) &&
              suspects.contains(z));

  auto detect_starts = [&cluster] {
    const auto run =
        obs::FlightRecorder::decode(cluster.recorder()->encode({}));
    std::vector<obs::RecEvent> starts;
    for (const obs::RecEvent& e : run->events) {
      if (e.kind == static_cast<std::uint8_t>(obs::RecKind::kDetectStart)) {
        starts.push_back(e);
      }
    }
    return starts;
  };
  const std::size_t starts_before = detect_starts().size();
  EXPECT_EQ(cluster.start_detections(p1, 1), 1u);
  const std::vector<obs::RecEvent> starts = detect_starts();
  ASSERT_EQ(starts.size(), starts_before + 1);
  EXPECT_EQ(starts.back().pid, raw(p1));
  EXPECT_EQ(starts.back().a, raw(y));
  // Nor does a budgeted start wait behind a paced one in flight.
  const util::Metrics& nm = cluster.network().metrics();
  ASSERT_TRUE(cluster.detect(p1, x).has_value());
  EXPECT_EQ(cluster.start_detections(p1, 1), 1u);
  EXPECT_EQ(nm.get("cycle.starts_queued"), 0u);

  // With no budget, suspects start in waves: on a fresh snapshot only the
  // first (x, lowest id) starts at once and the others queue; draining the
  // network starts one more per wave, in queue order.  None of the three
  // has an outgoing link, so no detection sends anything and the waves run
  // back to back at the same step; none is proven, so none covers.
  cluster.run_until_quiescent();
  cluster.snapshot(p1);
  ASSERT_EQ(cluster.suspects(p1), suspects);
  const std::size_t base = detect_starts().size();
  EXPECT_EQ(cluster.start_detections(p1), 1u);
  EXPECT_EQ(nm.get("cycle.starts_queued"), 2u);
  ASSERT_EQ(detect_starts().size(), base + 1);
  EXPECT_EQ(detect_starts().back().a, raw(x));
  EXPECT_TRUE(cluster.run_until_quiescent().quiescent);
  const std::vector<obs::RecEvent> waves = detect_starts();
  ASSERT_EQ(waves.size(), base + 3);
  EXPECT_EQ(waves[base + 1].a, raw(y));
  EXPECT_EQ(waves[base + 2].a, raw(z));
  EXPECT_EQ(waves[base].step, waves[base + 2].step);
  EXPECT_EQ(nm.get("cycle.starts_covered"), 0u);
}

// ---- Daemon-schedule determinism -------------------------------------------

/// Chaos-ish workload driven by the GC daemon, parameterized on the
/// worker-pool width and the idle-drain schedule; returns the recording.
std::string drive_daemon(std::size_t threads, bool event_skip) {
  ClusterConfig ccfg;
  ccfg.threads = threads;
  ccfg.lease_timeout = 48;
  Cluster cluster{ccfg};
  std::vector<ProcessId> pids;
  for (int i = 0; i < 4; ++i) pids.push_back(cluster.add_process());
  workload::MutatorSpec spec;
  spec.seed = 4242;
  spec.w_collect = 0;
  spec.w_step = 0;
  workload::RandomMutator mutator{cluster, spec};
  GcDaemon daemon{cluster, DaemonConfig{}};

  for (int round = 0; round < 6; ++round) {
    mutator.run(25);
    daemon.run(15);          // busy phase: the lanes take decisions
    cluster.collect_all();   // engages the worker pool when threads > 1
    // Idle stretch: skipped in one hop or stepped through one by one —
    // byte-identical recordings prove the schedules are indistinguishable
    // to every observer (including the lanes' next due-points).
    if (event_skip) {
      cluster.advance(73);
    } else {
      for (int s = 0; s < 73; ++s) cluster.step();
    }
  }
  cluster.run_until_quiescent(2000);
  return cluster.recorder()->encode(obs::RecStamp{});
}

TEST(AdaptivePolicy, RecordingsByteIdenticalAcrossThreadCounts) {
  const std::string t1 = drive_daemon(/*threads=*/1, /*event_skip=*/false);
  const std::string t8 = drive_daemon(/*threads=*/8, /*event_skip=*/false);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t8)
      << "worker-pool width changed the daemon's decisions";
}

TEST(AdaptivePolicy, RecordingsByteIdenticalAcrossSchedules) {
  const std::string per_step = drive_daemon(/*threads=*/1, /*event_skip=*/false);
  const std::string skipped = drive_daemon(/*threads=*/1, /*event_skip=*/true);
  ASSERT_FALSE(per_step.empty());
  EXPECT_EQ(per_step, skipped)
      << "event-skip scheduling changed the daemon's decisions";
}

}  // namespace
}  // namespace rgc
