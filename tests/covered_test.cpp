// One verdict per cycle (DESIGN.md): the covered set, the detection waves
// and the closure-wide Cut.  A full GC starts one detection per process,
// queues the other suspects behind it, skips those a verdict's closure has
// covered, and cuts every member of a proven closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/oracle.h"
#include "obs/recorder.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::core {
namespace {

std::uint64_t reclaim_latency_max(Cluster& cluster) {
  std::uint64_t most = 0;
  for (ProcessId pid : cluster.process_ids()) {
    const util::Histogram* h = cluster.process(pid).metrics().find_histogram(
        "gc.reclaim_latency_steps");
    if (h != nullptr && h->count() != 0) most = std::max(most, h->max());
  }
  return most;
}

TEST(Covered, OneWaveProvesTheMeshAtTheParentsLatency) {
  // Eight processes, 97 garbage replicas.  One detection per replica (the
  // behaviour before the covered set) gave 97 verdicts, 68 steps and a
  // worst reclaim latency of 75.  Now the first wave's eight detections
  // prove the mesh, their closures cover every queued suspect, and the
  // closure-wide cuts reclaim it all one step sooner.
  Cluster cluster;
  workload::build_mesh(cluster, {8, 8, 1});
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.total_objects(), 97u);
  const std::uint64_t start = cluster.now();
  const Cluster::FullGcStats stats = cluster.run_full_gc();

  EXPECT_LE(cluster.cycles_found().size(), 8u);
  EXPECT_EQ(stats.reclaimed_objects, 97u);
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_EQ(cluster.now() - start, 67u);
  EXPECT_EQ(reclaim_latency_max(cluster), 74u);
  const util::Metrics& nm = cluster.network().metrics();
  EXPECT_GT(nm.get("cycle.starts_queued"), 0u);
  EXPECT_EQ(nm.get("cycle.starts_covered"), nm.get("cycle.starts_queued"))
      << "every queued suspect lies inside a proven closure";
}

TEST(Covered, FailedFirstWaveStillReclaimsTheCycle) {
  // `live` on p1 (the lowest id there) is held by p2's rooted holder, and
  // references `w` on p2 (lower than b there).  The garbage cycle a@p1 <->
  // b@p2 sits beside them.  Each process's first wave starts its lowest
  // suspect (live, w), which cannot prove anything; the cycle must still
  // fall to the queued starts within the same full GC.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId live = cluster.new_object(p1);
  const ObjectId w = cluster.new_object(p2);
  const ObjectId holder = cluster.new_object(p2);
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p2);
  cluster.add_root(p2, holder);
  cluster.add_root(p1, a);
  cluster.add_root(p2, b);
  workload::make_remote_ref(cluster, p2, holder, p1, live);
  workload::make_remote_ref(cluster, p1, live, p2, w);
  workload::make_remote_ref(cluster, p1, a, p2, b);
  workload::make_remote_ref(cluster, p2, b, p1, a);
  cluster.remove_root(p1, a);
  cluster.remove_root(p2, b);

  const Cluster::FullGcStats stats = cluster.run_full_gc();
  EXPECT_EQ(stats.cycles_found, cluster.cycles_found().size());
  ASSERT_FALSE(cluster.cycles_found().empty());
  for (const gc::Cdm& verdict : cluster.cycles_found()) {
    EXPECT_TRUE(verdict.candidate.object == a || verdict.candidate.object == b);
  }
  EXPECT_GT(cluster.network().metrics().get("cycle.starts_queued"), 0u);
  EXPECT_FALSE(cluster.process(p1).heap().contains(a));
  EXPECT_FALSE(cluster.process(p2).heap().contains(b));
  EXPECT_TRUE(cluster.process(p1).heap().contains(live));
  EXPECT_TRUE(cluster.process(p2).heap().contains(w));
  const OracleReport report = Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.garbage_objects().empty());
}

TEST(Covered, QuiescenceWaitsForQueuedStarts) {
  // Three suspects on p1 held by p2's rooted holder.  None has an outgoing
  // link, so no detection sends anything: the network is idle from the
  // first start on, and the queued two must still start before
  // run_until_quiescent reports quiescence.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId x = cluster.new_object(p1);
  const ObjectId y = cluster.new_object(p1);
  const ObjectId z = cluster.new_object(p1);
  const ObjectId holder = cluster.new_object(p2);
  cluster.add_root(p2, holder);
  for (const ObjectId o : {x, y, z}) {
    workload::make_remote_ref(cluster, p2, holder, p1, o);
  }
  workload::settle(cluster, 3);
  cluster.snapshot(p1);

  const util::Metrics& pm = cluster.process(p1).metrics();
  const std::uint64_t before = pm.get("cycle.detections_started");
  ASSERT_TRUE(cluster.detect(p1, x).has_value());
  EXPECT_FALSE(cluster.detect(p1, y).has_value());
  EXPECT_FALSE(cluster.detect(p1, z).has_value());
  EXPECT_EQ(cluster.network().metrics().get("cycle.starts_queued"), 2u);
  ASSERT_TRUE(cluster.network().idle());
  EXPECT_EQ(pm.get("cycle.detections_started"), before + 1);

  const QuiescenceStatus status = cluster.run_until_quiescent();
  EXPECT_TRUE(status.quiescent);
  EXPECT_EQ(pm.get("cycle.detections_started"), before + 3);

  // A crashed process's queue goes with it.
  cluster.snapshot(p1);
  ASSERT_TRUE(cluster.detect(p1, x).has_value());
  EXPECT_FALSE(cluster.detect(p1, y).has_value());
  cluster.kill(p1);
  EXPECT_TRUE(cluster.run_until_quiescent().quiescent);
}

TEST(Covered, WavesKeepEventSkippingIdenticalToStepping) {
  // Queued starts on an idle network begin at the end of the next step;
  // advance()'s event skipping must not jump past that step.
  const auto drive = [](bool event_skip) {
    Cluster cluster;
    const ProcessId p1 = cluster.add_process();
    const ProcessId p2 = cluster.add_process();
    const ObjectId x = cluster.new_object(p1);
    const ObjectId y = cluster.new_object(p1);
    const ObjectId holder = cluster.new_object(p2);
    cluster.add_root(p2, holder);
    workload::make_remote_ref(cluster, p2, holder, p1, x);
    workload::make_remote_ref(cluster, p2, holder, p1, y);
    workload::settle(cluster, 3);
    cluster.snapshot(p1);
    EXPECT_TRUE(cluster.detect(p1, x).has_value());
    EXPECT_FALSE(cluster.detect(p1, y).has_value());
    if (event_skip) {
      cluster.advance(40);
    } else {
      for (int i = 0; i < 40; ++i) cluster.step();
    }
    return cluster.recorder()->encode(cluster.recorder_stamp());
  };
  const auto start_steps = [](const std::string& recording) {
    const auto run = obs::FlightRecorder::decode(recording);
    std::vector<std::uint64_t> steps;
    for (const obs::RecEvent& e : run->events) {
      if (e.kind == static_cast<std::uint8_t>(obs::RecKind::kDetectStart)) {
        steps.push_back(e.step);
      }
    }
    return steps;
  };
  const std::string stepped = drive(false);
  const std::string skipped = drive(true);
  EXPECT_EQ(start_steps(stepped).size(), 2u);
  EXPECT_EQ(start_steps(stepped), start_steps(skipped));
  EXPECT_TRUE(stepped == skipped) << "the recordings differ";
}

TEST(Covered, InvokedMemberCutGoesStaleAndSafetyHolds) {
  // The garbage ring a@p1 -> b@p2 -> c@p3 -> a@p1, proven from a.  Between
  // the snapshots and the Cut, p1 invokes b through the a -> b reference:
  // b's scion IC moves past what the verdict observed, so b's cut (not the
  // candidate's) is refused and counted stale, while a's and c's apply.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ProcessId p3 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p2);
  const ObjectId c = cluster.new_object(p3);
  cluster.add_root(p1, a);
  cluster.add_root(p2, b);
  cluster.add_root(p3, c);
  workload::make_remote_ref(cluster, p1, a, p2, b);
  workload::make_remote_ref(cluster, p2, b, p3, c);
  workload::make_remote_ref(cluster, p3, c, p1, a);
  cluster.remove_root(p1, a);
  cluster.remove_root(p2, b);
  cluster.remove_root(p3, c);
  workload::settle(cluster, 4);
  ASSERT_TRUE(cluster.process(p2).scions().contains(rm::ScionKey{p1, b}));

  cluster.snapshot_all();
  cluster.invoke(p1, b);  // on the p1 -> p2 link, ahead of the CDM
  ASSERT_TRUE(cluster.detect(p1, a).has_value());
  while (!cluster.network().idle()) {
    cluster.step();
    const OracleReport report = Oracle::analyze(cluster);
    ASSERT_TRUE(report.violations.empty()) << report.violations.front();
  }
  ASSERT_EQ(cluster.cycles_found().size(), 1u);
  EXPECT_EQ(cluster.process(p2).metrics().get("cycle.cuts_stale"), 1u);
  EXPECT_EQ(cluster.process(p1).metrics().get("cycle.cuts_stale"), 0u);
  EXPECT_EQ(cluster.process(p3).metrics().get("cycle.cuts_stale"), 0u);
  EXPECT_TRUE(cluster.process(p2).scions().contains(rm::ScionKey{p1, b}))
      << "a stale member cut must not delete the scion";
  EXPECT_EQ(cluster.process(p3).metrics().get("cycle.scions_cut"), 1u);

  // The ring still goes, safely: the full GC finishes what the cuts began.
  cluster.run_full_gc();
  const OracleReport report = Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(report.garbage_objects().empty());
  EXPECT_EQ(cluster.total_objects(), 0u);
}

}  // namespace
}  // namespace rgc::core
