// Edge-case tests across modules: detector configuration variants, chain
// summaries, LGC options, message weights, finalizer internals.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/oracle.h"
#include "gc/lgc/lgc.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc {
namespace {

using core::Cluster;
using core::ClusterConfig;

// ---- Detector configuration variants --------------------------------------

TEST(DetectorConfigEdge, DeferPropsStillDetectsFigure2) {
  ClusterConfig cfg;
  cfg.detector.defer_props = true;
  Cluster cluster{cfg};
  const auto f = workload::build_figure2(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(f.p1, f.x).has_value());
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.cycles_found().size(), 1u);
  // Figure 2's trace is ref/prop-alternating; both policies walk the same
  // four hops.
  EXPECT_EQ(cluster.network().total_sent("CDM"), 4u);
}

TEST(DetectorConfigEdge, DeferPropsStillDetectsFigure3) {
  ClusterConfig cfg;
  cfg.detector.defer_props = true;
  Cluster cluster{cfg};
  const auto f = workload::build_figure3(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(f.p1, f.c).has_value());
  cluster.run_until_quiescent();
  EXPECT_GE(cluster.cycles_found().size(), 1u);
}

TEST(DetectorConfigEdge, AllPolicyCombinationsCollectTheMesh) {
  for (const bool children_first : {true, false}) {
    for (const bool defer_props : {true, false}) {
      ClusterConfig cfg;
      cfg.detector.children_first = children_first;
      cfg.detector.defer_props = defer_props;
      Cluster cluster{cfg};
      workload::build_mesh(cluster, {3, 4});
      cluster.run_full_gc();
      EXPECT_EQ(cluster.total_objects(), 0u)
          << "children_first=" << children_first
          << " defer_props=" << defer_props;
    }
  }
}

// ---- Stub–scion chain summaries --------------------------------------------

TEST(SummaryEdge, ChainScionForwardsThroughItsStub) {
  // o lives on P0; P1 imports the reference; P2 imports it *from P1*:
  // P1's scion for o (from P2) is a chain hop whose anchor is not local —
  // its StubsFrom must carry the onward stub so the chain stays alive.
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId o = cluster.new_object(p0);
  const ObjectId h0 = cluster.new_object(p0);
  cluster.add_root(p0, h0);
  cluster.add_ref(p0, h0, o);
  cluster.propagate(h0, p0, p1);
  cluster.run_until_quiescent();
  const ObjectId h1 = cluster.new_object(p1);
  cluster.add_root(p1, h1);
  cluster.add_ref(p1, h1, o);
  cluster.propagate(h1, p1, p2);
  cluster.run_until_quiescent();

  const auto s = gc::summarize(cluster.process(p1));
  const rm::ScionKey chain{p2, o};
  ASSERT_TRUE(s.scions.contains(chain));
  EXPECT_FALSE(cluster.process(p1).has_replica(o));
  EXPECT_TRUE(s.scions.at(chain).stubs_from.contains(rm::StubKey{o, p0}))
      << "the chain hop must keep the onward stub reachable";
}

// ---- LGC options -------------------------------------------------------------

TEST(LgcEdge, KeepDeadStubsWhenConfigured) {
  net::Network net;
  rm::Process p1{ProcessId{1}, net};
  rm::Process p2{ProcessId{2}, net};
  net.attach(ProcessId{1}, [&](const net::Envelope& e, net::Message&) {
    if (const auto* m = dynamic_cast<const rm::PropagateMsg*>(e.msg)) {
      p1.on_propagate(e, *m);
    }
  });
  net.attach(ProcessId{2}, [&](const net::Envelope& e, net::Message&) {
    if (const auto* m = dynamic_cast<const rm::PropagateMsg*>(e.msg)) {
      p2.on_propagate(e, *m);
    }
  });
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  while (!net.idle()) net.step();
  p2.remove_ref(ObjectId{1}, ObjectId{2});  // the stub's holder lets go

  gc::LgcConfig cfg;
  cfg.drop_dead_stubs = false;
  const auto r = gc::Lgc::collect(p2, cfg);
  EXPECT_FALSE(r.stub_reach.contains(rm::StubKey{ObjectId{2}, ProcessId{1}}));
  EXPECT_TRUE(p2.stubs().contains(rm::StubKey{ObjectId{2}, ProcessId{1}}))
      << "inspection mode must not mutate the stub table";
}

// ---- Message weights ---------------------------------------------------------

TEST(MessageEdge, CdmWeightTracksAllSections) {
  gc::CdmMsg msg;
  const std::size_t base = msg.weight();
  msg.cdm.pending_refs.push_back(Replica{ObjectId{1}, ProcessId{0}});
  EXPECT_EQ(msg.weight(), base + 1);
  msg.cdm.require(gc::Element::make(Replica{ObjectId{1}, ProcessId{0}}),
                  gc::Element::make(Replica{ObjectId{2}, ProcessId{1}}),
                  /*prop=*/true);
  EXPECT_EQ(msg.weight(), base + 3);  // +1 dep, +1 edge
}

TEST(MessageEdge, NewSetStubsWeightCountsStubAnchors) {
  gc::NewSetStubsMsg msg;
  EXPECT_EQ(msg.weight(), 1u);
  msg.stub_anchors.push_back(ObjectId{1});
  msg.stub_anchors.push_back(ObjectId{2});
  EXPECT_EQ(msg.weight(), 1 + msg.stub_anchors.size());
}

// ---- Finalizer internals --------------------------------------------------------

TEST(HeuristicEdge, FinalizerResetClearsState) {
  gc::Finalizer fin{gc::FinalizeStrategy::kReRegister};
  rm::Object obj;
  obj.id = ObjectId{1};
  fin.finalize(obj);
  EXPECT_EQ(fin.finalized_count(), 1u);
  fin.reset();
  EXPECT_EQ(fin.finalized_count(), 0u);
}

// ---- Oracle chain awareness ----------------------------------------------------

TEST(OracleEdge, LivePathThroughChainIsHealthy) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId o = cluster.new_object(p0);
  const ObjectId h0 = cluster.new_object(p0);
  cluster.add_root(p0, h0);
  cluster.add_ref(p0, h0, o);
  cluster.propagate(h0, p0, p1);
  cluster.run_until_quiescent();
  const ObjectId h1 = cluster.new_object(p1);
  cluster.add_root(p1, h1);
  cluster.add_ref(p1, h1, o);
  cluster.propagate(h1, p1, p2);
  cluster.run_until_quiescent();
  cluster.add_root(p2, o);  // root resolving through a two-hop chain

  const auto report = core::Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty())
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_TRUE(report.is_live(o));
}

}  // namespace
}  // namespace rgc
