// Integration tests: the replication-blind baseline (modified [23]) —
// correctness parity with the main detector, and the §5.2 comparison
// claims: same steps-to-detection, more CDMs.
#include <gtest/gtest.h>

#include <string>

#include "core/cluster.h"
#include "core/oracle.h"
#include "util/metrics.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::DetectorMode;

ClusterConfig baseline_config() {
  ClusterConfig cfg;
  cfg.mode = DetectorMode::kBaseline;
  return cfg;
}

TEST(Baseline, DetectsTheFigure2Cycle) {
  Cluster cluster{baseline_config()};
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(f.p1, f.x).has_value());
  cluster.run_until_quiescent();
  ASSERT_GE(cluster.cycles_found().size(), 1u);
  EXPECT_EQ(cluster.cycles_found().front().candidate, (Replica{f.x, f.p1}));
}

TEST(Baseline, CutAndReclaimWorkThroughTheSharedMachinery) {
  Cluster cluster{baseline_config()};
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  ASSERT_GE(cluster.cycles_found().size(), 1u);
  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(Baseline, DetectsTheFigure3Cycle) {
  Cluster cluster{baseline_config()};
  const auto f = workload::build_figure3(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(f.p1, f.c).has_value());
  cluster.run_until_quiescent();
  EXPECT_GE(cluster.cycles_found().size(), 1u);
}

TEST(Baseline, RefusesLiveCandidates) {
  Cluster cluster{baseline_config()};
  const auto f = workload::build_figure2(cluster);
  cluster.add_root(f.p2, f.x);
  cluster.snapshot_all();
  EXPECT_FALSE(cluster.detect(f.p2, f.x).has_value());
  cluster.detect(f.p1, f.x);
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.cycles_found().empty());
}

TEST(Baseline, RaceBarrierAlsoProtectsTheBaseline) {
  Cluster cluster{baseline_config()};
  const auto f = workload::build_figure4(cluster);
  cluster.snapshot(f.p2);
  cluster.snapshot(f.p3);
  cluster.snapshot(f.p4);
  cluster.propagate(f.x, f.p1, f.p2);
  cluster.run_until_quiescent();
  cluster.remove_root(f.p1, f.x);
  cluster.snapshot(f.p1);
  cluster.detector(f.p2).start_detection(f.x);
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.cycles_found().empty());
  EXPECT_GE(cluster.metric_total("cycle.aborts_race"), 1u);
}

struct MeshComparison {
  std::uint64_t steps{0};
  std::uint64_t cdms{0};
};

MeshComparison run_mesh(DetectorMode mode, std::size_t R, std::size_t D) {
  ClusterConfig cfg;
  cfg.mode = mode;
  Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(cluster, {R, D});
  const std::uint64_t cdms_before = cluster.network().total_sent("CDM");
  cluster.snapshot_all();
  const std::uint64_t start = cluster.now();
  EXPECT_TRUE(cluster.detect(mesh.head_process, mesh.head).has_value());
  while (cluster.cycles_found().empty() && !cluster.network().idle()) {
    cluster.step();
  }
  EXPECT_FALSE(cluster.cycles_found().empty())
      << "mode=" << static_cast<int>(mode) << " R=" << R << " D=" << D;
  return {cluster.now() - start,
          cluster.network().total_sent("CDM") - cdms_before};
}

TEST(Baseline, SameStepsFewerCdmsOnTheMesh) {
  // §4: "both algorithms take the same amount of time to identify the
  // cycle"; §5.2: "our approach uses less CDMs".
  for (const std::size_t R : {2, 3}) {
    for (const std::size_t D : {4, 8}) {
      const auto ours = run_mesh(DetectorMode::kReplicationAware, R, D);
      const auto base = run_mesh(DetectorMode::kBaseline, R, D);
      EXPECT_LT(ours.cdms, base.cdms) << "R=" << R << " D=" << D;
      // Steps must be comparable (both bounded by the same cycle length).
      EXPECT_LE(ours.steps, base.steps + R * D) << "R=" << R << " D=" << D;
      EXPECT_LE(base.steps, ours.steps + R * D) << "R=" << R << " D=" << D;
    }
  }
}

TEST(Baseline, GapWidensWithReplicationFactor) {
  // Figure 9's trend: the relative advantage grows as more processes
  // replicate the cycle.
  const auto ours2 = run_mesh(DetectorMode::kReplicationAware, 2, 6);
  const auto base2 = run_mesh(DetectorMode::kBaseline, 2, 6);
  const auto ours4 = run_mesh(DetectorMode::kReplicationAware, 4, 6);
  const auto base4 = run_mesh(DetectorMode::kBaseline, 4, 6);
  const double gap2 = static_cast<double>(base2.cdms) / ours2.cdms;
  const double gap4 = static_cast<double>(base4.cdms) / ours4.cdms;
  EXPECT_GE(gap4, gap2 * 0.9)
      << "gap2=" << gap2 << " gap4=" << gap4
      << " (the advantage must not shrink as replication grows)";
}

// ---- The paper comparison, pinned ------------------------------------------

struct DetectionRun {
  std::uint64_t cdms{0};
  std::uint64_t steps{0};
  bool converged{false};
};

/// One detection from the mesh head, measured the way bench/fig8 and
/// bench/fig9 measure it: steps until the verdict (or until the network
/// idles without one), CDMs over the whole drained detection.
DetectionRun detect_from_head(Cluster& cluster, const workload::Mesh& mesh) {
  const std::uint64_t before = cluster.network().total_sent("CDM");
  cluster.snapshot_all();
  const std::uint64_t start = cluster.now();
  cluster.detect(mesh.head_process, mesh.head);
  while (cluster.cycles_found().empty() && !cluster.network().idle()) {
    cluster.step();
  }
  DetectionRun run;
  run.converged = !cluster.cycles_found().empty();
  run.steps = cluster.now() - start;
  cluster.run_until_quiescent();
  run.cdms = cluster.network().total_sent("CDM") - before;
  return run;
}

TEST(Baseline, PaperComparisonNumbersArePinned) {
  // The exact figures bench/fig8, bench/fig9 and bench/table2 print: a
  // change to either traversal that moves one of them is a change to the
  // reproduced paper comparison, not a refactor.
  struct Point {
    const char* shape;
    workload::MeshSpec spec;
    DetectionRun ours;
    DetectionRun baseline;
  };
  const Point points[] = {
      {"Fig. 8, R=4 D=10", {4, 10}, {19, 19, true}, {79, 20, true}},
      {"Fig. 9, R=2 D=10", {2, 10}, {9, 9, true}, {39, 10, true}},
      {"Fig. 9, R=4 D=100", {4, 100}, {199, 199, true}, {799, 200, true}},
      // The flood that burns out: 54 steps until the network idles.
      {"Fig. 9 sweep 2, factor 3", {4, 25, 1}, {103, 103, true},
       {618, 54, false}},
  };
  for (const Point& p : points) {
    for (const DetectorMode mode :
         {DetectorMode::kReplicationAware, DetectorMode::kBaseline}) {
      const bool ours = mode == DetectorMode::kReplicationAware;
      SCOPED_TRACE(std::string(p.shape) + (ours ? " ours" : " baseline"));
      ClusterConfig cfg;
      cfg.mode = mode;
      Cluster cluster{cfg};
      const workload::Mesh mesh = workload::build_mesh(cluster, p.spec);
      const DetectionRun got = detect_from_head(cluster, mesh);
      const DetectionRun& want = ours ? p.ours : p.baseline;
      EXPECT_EQ(got.cdms, want.cdms);
      EXPECT_EQ(got.steps, want.steps);
      EXPECT_EQ(got.converged, want.converged);
    }
  }
}

TEST(Baseline, LongCycleCdmWeightIsPinned) {
  // One detection around an R=2 mesh: the payload grows with every hop, so
  // CDM weight is quadratic in D (about 11·D² for our traversal).  A change
  // to how the payload is stored or carried must move neither the number
  // of CDMs nor their wire weight.
  struct Point {
    std::size_t dependencies;
    std::uint64_t ours_cdms, ours_weight;
    std::uint64_t flat_cdms, flat_weight;
  };
  const Point points[] = {
      {50, 49, 26999, 199, 60403},
      {100, 99, 108999, 399, 240803},
      {200, 199, 437999, 799, 961603},
  };
  for (const Point& p : points) {
    for (const DetectorMode mode :
         {DetectorMode::kReplicationAware, DetectorMode::kBaseline}) {
      const bool ours = mode == DetectorMode::kReplicationAware;
      SCOPED_TRACE("D=" + std::to_string(p.dependencies) +
                   (ours ? " ours" : " baseline"));
      ClusterConfig cfg;
      cfg.mode = mode;
      Cluster cluster{cfg};
      const workload::Mesh mesh =
          workload::build_mesh(cluster, {2, p.dependencies});
      const util::Metrics& net = cluster.network().metrics();
      const std::uint64_t cdms_before = net.get("net.sent.CDM");
      const std::uint64_t weight_before = net.get("net.weight.CDM");
      ASSERT_TRUE(detect_from_head(cluster, mesh).converged);
      EXPECT_EQ(net.get("net.sent.CDM") - cdms_before,
                ours ? p.ours_cdms : p.flat_cdms);
      EXPECT_EQ(net.get("net.weight.CDM") - weight_before,
                ours ? p.ours_weight : p.flat_weight);
    }
  }
}

TEST(Baseline, FloodRecordsTheDetectLayer) {
  // The flat traversal runs inside the one CycleDetector shell, so baseline
  // runs time their examinations and record steps-to-detection too.
  Cluster cluster{baseline_config()};
  const workload::Mesh mesh = workload::build_mesh(cluster, {4, 10});
  ASSERT_TRUE(detect_from_head(cluster, mesh).converged);

  const util::Histogram* detect_us =
      cluster.profile().find_histogram("cycle.detect_us");
  ASSERT_NE(detect_us, nullptr);
  EXPECT_GT(detect_us->count(), 0u);

  util::Histogram steps;
  for (const ProcessId pid : cluster.process_ids()) {
    if (const util::Histogram* h = cluster.process(pid).metrics().find_histogram(
            "cycle.steps_to_detection")) {
      steps.merge(*h);
    }
  }
  ASSERT_GT(steps.count(), 0u);
  EXPECT_EQ(steps.max(), 20u);  // Table 2's baseline count at R=4, D=10
}

TEST(Baseline, BothModesLeaveLiveDataIntactOnTheMesh) {
  for (const DetectorMode mode :
       {DetectorMode::kReplicationAware, DetectorMode::kBaseline}) {
    ClusterConfig cfg;
    cfg.mode = mode;
    Cluster cluster{cfg};
    const workload::Mesh mesh = workload::build_mesh(cluster, {3, 2});
    cluster.add_root(mesh.head_process, mesh.head);
    const auto before = cluster.total_objects();
    cluster.run_full_gc();
    EXPECT_EQ(cluster.total_objects(), before);
    EXPECT_TRUE(core::Oracle::analyze(cluster).violations.empty());
  }
}

}  // namespace
}  // namespace rgc::gc
