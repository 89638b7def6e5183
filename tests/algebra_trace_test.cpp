// Wire-level verification of the paper's worked algebra traces (§3.3,
// §3.4): a network observer records every CDM in flight and the tests assert
// the algebra's evolution hop by hop.
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.h"
#include "gc/cycle/cdm.h"
#include "workload/figures.h"

namespace rgc::gc {
namespace {

using core::Cluster;

struct Hop {
  ProcessId src, dst;
  ObjectId entry;
  EntryVia via;
  Cdm cdm;
};

/// Records every CDM as it is delivered, before the receiving handler
/// runs.  Declared before the Cluster it observes, so it outlives it.
struct CdmTap final : net::Network::Observer {
  std::vector<Hop> hops;
  void on_deliver(const net::Envelope& env) override {
    if (const auto* m = dynamic_cast<const CdmMsg*>(env.msg)) {
      hops.push_back(Hop{env.src, env.dst, m->entry, m->via, m->cdm});
    }
  }
};

std::vector<Hop> tap_detection(Cluster& cluster, CdmTap& tap, ProcessId at,
                               ObjectId candidate) {
  cluster.network().add_observer(&tap);
  cluster.snapshot_all();
  EXPECT_TRUE(cluster.detect(at, candidate).has_value());
  cluster.run_until_quiescent();
  return tap.hops;
}

TEST(AlgebraTrace, Figure2HopSequenceMatchesThePaper) {
  CdmTap tap;
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  const auto hops = tap_detection(cluster, tap, f.p1, f.x);

  // §3.3's steps 4/11/17/23: P1 -> P2 -> P4 -> P3 -> P1.
  ASSERT_EQ(hops.size(), 4u);
  EXPECT_EQ(hops[0].src, f.p1);
  EXPECT_EQ(hops[0].dst, f.p2);
  EXPECT_EQ(hops[0].via, EntryVia::kProp);  // forward to child X'
  EXPECT_EQ(hops[0].entry, f.x);

  EXPECT_EQ(hops[1].src, f.p2);
  EXPECT_EQ(hops[1].dst, f.p4);
  EXPECT_EQ(hops[1].via, EntryVia::kRef);  // X' -> Y
  EXPECT_EQ(hops[1].entry, f.y);

  EXPECT_EQ(hops[2].src, f.p4);
  EXPECT_EQ(hops[2].dst, f.p3);
  EXPECT_EQ(hops[2].via, EntryVia::kProp);  // forward to child Y'
  EXPECT_EQ(hops[2].entry, f.y);

  EXPECT_EQ(hops[3].src, f.p3);
  EXPECT_EQ(hops[3].dst, f.p1);
  EXPECT_EQ(hops[3].via, EntryVia::kRef);  // Y' -> X, closing the loop
  EXPECT_EQ(hops[3].entry, f.x);
}

TEST(AlgebraTrace, Figure2AlgebraEvolvesLikeThePaper) {
  CdmTap tap;
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  const auto hops = tap_detection(cluster, tap, f.p1, f.x);
  ASSERT_EQ(hops.size(), 4u);

  const Element xp1 = Element::make(Replica{f.x, f.p1});
  const Element xp2 = Element::make(Replica{f.x, f.p2});
  const Element yp3 = Element::make(Replica{f.y, f.p3});
  const Element yp4 = Element::make(Replica{f.y, f.p4});

  // Alg1 (paper step 3): {{X'_P2}, {X_P1}} -> {} — the candidate seeds the
  // reference dependencies, its child the propagation dependencies, and
  // the target set is still empty.
  EXPECT_TRUE(hops[0].cdm.prop_deps.contains(xp2));
  EXPECT_TRUE(hops[0].cdm.ref_deps.contains(xp1));
  EXPECT_TRUE(hops[0].cdm.targets.empty());

  // Alg2 (step 10): X'_P2 visited, Y_P4 about to be.
  EXPECT_TRUE(hops[1].cdm.targets.contains(xp2));
  EXPECT_FALSE(hops[1].cdm.targets.contains(yp4));

  // Alg3 (step 16): Y_P4 visited, its child Y'_P3 a propagation dep.
  EXPECT_TRUE(hops[2].cdm.targets.contains(yp4));
  EXPECT_TRUE(hops[2].cdm.prop_deps.contains(yp3));

  // Alg4 (step 22): everything but the candidate visited.
  EXPECT_TRUE(hops[3].cdm.targets.contains(xp2));
  EXPECT_TRUE(hops[3].cdm.targets.contains(yp4));
  EXPECT_TRUE(hops[3].cdm.targets.contains(yp3));
  EXPECT_FALSE(hops[3].cdm.targets.contains(xp1))
      << "the candidate enters the target set only at the final visit";

  // Monotonicity: the target set only grows along the walk.
  for (std::size_t i = 1; i < hops.size(); ++i) {
    EXPECT_TRUE(hops[i - 1].cdm.targets.subset_of(hops[i].cdm.targets))
        << "hop " << i;
  }

  // The final verdict (§3.3 step 27: {{}, {}} -> {}).
  ASSERT_EQ(cluster.cycles_found().size(), 1u);
  EXPECT_TRUE(cluster.cycles_found().front().cycle_complete());
  EXPECT_TRUE(cluster.cycles_found().front().unresolved().empty());
}

TEST(AlgebraTrace, Figure3ForksAtP2LikeThePaper) {
  CdmTap tap;
  Cluster cluster;
  const auto f = workload::build_figure3(cluster);
  const auto hops = tap_detection(cluster, tap, f.p1, f.c);

  // §3.4 steps 6/7: two CDMs leave P2 in the same step — one toward E@P3,
  // one toward I@P5 — carrying the same algebra.
  std::vector<const Hop*> from_p2;
  for (const Hop& hop : hops) {
    if (hop.src == f.p2) from_p2.push_back(&hop);
  }
  ASSERT_EQ(from_p2.size(), 2u);
  std::set<ProcessId> dests{from_p2[0]->dst, from_p2[1]->dst};
  EXPECT_TRUE(dests.contains(f.p3));
  EXPECT_TRUE(dests.contains(f.p5));
  EXPECT_EQ(from_p2[0]->cdm.targets, from_p2[1]->cdm.targets)
      << "the fork duplicates the algebra (Alg2a == Alg2b)";

  // Track a (via P3/P6) closes the cycle; the verdict exists and covers
  // the F-replicas (paper steps 17-19).
  ASSERT_GE(cluster.cycles_found().size(), 1u);
  const Cdm& verdict = cluster.cycles_found().front();
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.f, f.p6})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.f, f.p3})));
  EXPECT_TRUE(verdict.targets.contains(Element::make(Replica{f.f, f.p5})));
}

TEST(AlgebraTrace, Figure3TrackBResolvesItsReplicaDependencyInline) {
  // In the paper, track b reaches P1 still owing F''_P5 ("we did not
  // traverse this object, we only know that it references an object being
  // checked for garbage") and stops.  Our refinement (DESIGN.md §7a.6)
  // examines local replicated ancestors *inline* against the same
  // snapshot, so the CDM leaving P5 toward I'@P4 already carries F''_P5
  // both as a dependency and as a visited target — track b does not have
  // to die on it.
  CdmTap tap;
  Cluster cluster;
  const auto f = workload::build_figure3(cluster);
  const auto hops = tap_detection(cluster, tap, f.p1, f.c);
  const Element f_at_p5 = Element::make(Replica{f.f, f.p5});
  bool dep_recorded = false;
  for (const Hop& hop : hops) {
    if (hop.src != f.p5) continue;
    if (hop.cdm.ref_deps.contains(f_at_p5)) {
      dep_recorded = true;
      EXPECT_TRUE(hop.cdm.targets.contains(f_at_p5))
          << "the local ancestor must have been examined inline";
    }
  }
  EXPECT_TRUE(dep_recorded) << "F''_P5 must appear as a dependency";
}

}  // namespace
}  // namespace rgc::gc
