// Integration tests: the replication-blind baseline (modified [23]) —
// correctness parity with the main detector, and the §5.2 comparison
// claims: same steps-to-detection, more CDMs.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/oracle.h"
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
  cluster.baseline(f.p2).start_detection(f.x);
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.cycles_found().empty());
  EXPECT_GE(cluster.metric_total("baseline.aborts_race"), 1u);
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
