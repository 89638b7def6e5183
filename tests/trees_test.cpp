// Scale/structure tests: replicated trees and tree rings — the acyclic
// machinery at volume and the acyclic/cyclic hand-off.
#include <gtest/gtest.h>

#include "core/oracle.h"
#include "workload/trees.h"

namespace rgc::workload {
namespace {

using core::Cluster;
using core::Oracle;

TEST(Trees, BuildShape) {
  Cluster cluster;
  const Tree tree = build_tree(cluster, {2, 3, 3});
  // 1 + 2 + 4 + 8 nodes, 14 edges.
  EXPECT_EQ(tree.nodes.size(), 15u);
  EXPECT_EQ(tree.edges, 14u);
  const auto report = Oracle::analyze(cluster);
  EXPECT_EQ(report.live_objects.size(), 15u);
  EXPECT_TRUE(report.violations.empty());
}

TEST(Trees, RejectsDegenerateSpecs) {
  Cluster cluster;
  EXPECT_THROW(build_tree(cluster, {0, 3, 3}), std::invalid_argument);
  EXPECT_THROW(build_tree_ring(cluster, {2, 2, 3}, 1), std::invalid_argument);
}

TEST(Trees, RootedTreeSurvivesGc) {
  Cluster cluster;
  const Tree tree = build_tree(cluster, {2, 3, 3});
  cluster.run_full_gc();
  const auto report = Oracle::analyze(cluster);
  EXPECT_EQ(report.live_objects.size(), tree.nodes.size());
  EXPECT_TRUE(report.violations.empty());
}

TEST(Trees, DroppedTreeIsFullyReclaimedAcyclically) {
  Cluster cluster;
  const Tree tree = build_tree(cluster, {2, 3, 4});
  cluster.remove_root(tree.root_process, tree.root);
  const auto stats = cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
  // A tree is acyclic: the reference-listing machinery alone suffices.
  EXPECT_EQ(stats.cycles_found, 0u)
      << "no detector involvement expected for acyclic garbage";
  EXPECT_TRUE(Oracle::fully_collected(cluster, Oracle::analyze(cluster)));
}

TEST(Trees, WideTreeAcrossManyProcesses) {
  Cluster cluster;
  const Tree tree = build_tree(cluster, {3, 3, 6});
  EXPECT_EQ(tree.nodes.size(), 40u);  // 1+3+9+27
  cluster.remove_root(tree.root_process, tree.root);
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(Trees, TreeRingNeedsTheDetector) {
  Cluster cluster;
  const TreeRing ring = build_tree_ring(cluster, {2, 2, 3}, 3);
  ASSERT_GT(cluster.total_objects(), 0u);
  // Acyclic rounds alone cannot finish the job: the spine is a cycle.
  for (int i = 0; i < 10; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_GT(cluster.total_objects(), 0u)
      << "the cyclic spine must survive pure acyclic rounds";

  const auto stats = cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_GE(stats.cycles_found, 1u);
  (void)ring;
}

TEST(Trees, PartiallyLiveRingKeepsItsLiveTree) {
  Cluster cluster;
  TreeRing ring = build_tree_ring(cluster, {2, 2, 3}, 3);
  // Resurrect one tree root: through the spine it transitively keeps the
  // *whole ring* alive (every tree is reachable around the cycle).
  const Tree& kept = ring.trees[1];
  cluster.add_root(kept.root_process, kept.root);
  cluster.run_full_gc();
  const auto report = Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.garbage_objects().size(), 0u);
  EXPECT_EQ(report.live_objects.size(), ring.total_nodes);
  // Drop it again: everything must now go.
  cluster.remove_root(kept.root_process, kept.root);
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(Trees, TwoTreeRingIsReclaimed) {
  Cluster cluster;
  build_tree_ring(cluster, {2, 2, 3}, 2);
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
}

}  // namespace
}  // namespace rgc::workload
