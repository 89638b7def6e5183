// Unit tests: the CDM algebra — element ordering, observation barrier,
// matching, notation.
#include <gtest/gtest.h>

#include "gc/cycle/cdm.h"

namespace rgc::gc {
namespace {

Element rep(std::uint64_t obj, std::uint32_t proc) {
  return Element::make(Replica{ObjectId{obj}, ProcessId{proc}});
}

Element link(std::uint32_t holder, std::uint64_t obj, std::uint32_t at) {
  return Element::make(RefLink{ProcessId{holder}, ObjectId{obj}, ProcessId{at}});
}

TEST(CdmAlgebra, ElementKindsAreDistinct) {
  // A replica o1@P2 and a link ->o1@P2 must never be confused.
  EXPECT_NE(rep(1, 2), link(0, 1, 2));
  EXPECT_EQ(rep(1, 2), rep(1, 2));
  EXPECT_EQ(link(0, 1, 2), link(0, 1, 2));
  EXPECT_NE(link(0, 1, 2), link(3, 1, 2));  // different holder
}

TEST(CdmAlgebra, ElementToString) {
  EXPECT_EQ(to_string(rep(7, 3)), "o7@P3");
  EXPECT_EQ(to_string(link(1, 7, 3)), "P1->o7@P3");
}

TEST(CdmAlgebra, FlatUnresolvedIsSourceMinusTargets) {
  Cdm cdm;
  cdm.prop_deps.insert(rep(1, 1));
  cdm.prop_deps.insert(rep(1, 2));
  cdm.ref_deps.insert(link(3, 1, 1));
  cdm.targets.insert(rep(1, 2));
  const auto u = cdm.flat_unresolved();
  EXPECT_EQ(u.size(), 2u);
  EXPECT_TRUE(u.contains(rep(1, 1)));
  EXPECT_TRUE(u.contains(link(3, 1, 1)));
  EXPECT_FALSE(cdm.flat_complete());
}

TEST(CdmAlgebra, RequireFillsFlatSetsAndEdges) {
  Cdm cdm;
  cdm.candidate = Replica{ObjectId{1}, ProcessId{1}};
  cdm.require(rep(1, 1), rep(1, 2), /*prop=*/true);
  cdm.require(rep(1, 1), link(3, 1, 1), /*prop=*/false);
  cdm.require(rep(1, 1), link(3, 1, 1), /*prop=*/false);  // dedup
  EXPECT_TRUE(cdm.prop_deps.contains(rep(1, 2)));
  EXPECT_TRUE(cdm.ref_deps.contains(link(3, 1, 1)));
  EXPECT_EQ(cdm.dep_edges().size(), 2u);
}

TEST(CdmAlgebra, ClosureFollowsAttributionFromTheCandidate) {
  Cdm cdm;
  cdm.candidate = Replica{ObjectId{1}, ProcessId{1}};
  // Candidate requires its replica on P2; the replica requires a link.
  cdm.require(rep(1, 1), rep(1, 2), true);
  cdm.require(rep(1, 2), link(3, 1, 2), false);
  // An unrelated visited node's requirement must NOT block the candidate.
  cdm.require(rep(9, 4), rep(9, 5), true);
  const auto closure = cdm.required_closure();
  EXPECT_TRUE(closure.contains(rep(1, 1)));
  EXPECT_TRUE(closure.contains(rep(1, 2)));
  EXPECT_TRUE(closure.contains(link(3, 1, 2)));
  EXPECT_FALSE(closure.contains(rep(9, 5)))
      << "requirements of non-required nodes stay out of the closure";
}

TEST(CdmAlgebra, CycleCompleteWhenClosureVisited) {
  Cdm cdm;
  cdm.candidate = Replica{ObjectId{1}, ProcessId{1}};
  cdm.require(rep(1, 1), rep(1, 2), true);
  cdm.require(rep(1, 2), link(3, 1, 1), false);
  EXPECT_FALSE(cdm.cycle_complete());
  cdm.targets.insert(rep(1, 2));
  cdm.targets.insert(link(3, 1, 1));
  EXPECT_FALSE(cdm.cycle_complete()) << "the candidate itself is unvisited";
  cdm.targets.insert(rep(1, 1));
  EXPECT_TRUE(cdm.cycle_complete());
}

TEST(CdmAlgebra, PoisonedBranchDoesNotBlockVerdict) {
  // The refinement over the paper's flat matching: a visited descendant
  // with an unresolvable (live-elsewhere) requirement is ignored as long
  // as the candidate does not depend on it.
  Cdm cdm;
  cdm.candidate = Replica{ObjectId{1}, ProcessId{1}};
  cdm.require(rep(1, 1), rep(1, 2), true);
  cdm.targets.insert(rep(1, 1));
  cdm.targets.insert(rep(1, 2));
  // Poison: visited descendant o7@P3 requires live o7@P9, never resolved.
  cdm.require(rep(7, 3), rep(7, 9), true);
  cdm.targets.insert(rep(7, 3));
  EXPECT_TRUE(cdm.cycle_complete());
  EXPECT_FALSE(cdm.flat_complete()) << "the flat matching stays blocked";
}

TEST(CdmAlgebra, UnvisitedCandidateNeverCompletes) {
  // Matching guards against the trivial case by construction: the
  // candidate seeds its own closure and must be visited.
  Cdm cdm;
  cdm.candidate = Replica{ObjectId{1}, ProcessId{1}};
  EXPECT_FALSE(cdm.cycle_complete());
  cdm.targets.insert(rep(1, 1));
  EXPECT_TRUE(cdm.cycle_complete());
}

TEST(CdmAlgebra, ObserveAcceptsConsistentRepeats) {
  Cdm cdm;
  const RefLink l{ProcessId{1}, ObjectId{2}, ProcessId{3}};
  EXPECT_TRUE(cdm.observe({l, 5}));
  EXPECT_TRUE(cdm.observe({l, 5}));  // same counter, fine
  EXPECT_EQ(cdm.observations().size(), 2u);
}

TEST(CdmAlgebra, ObserveDetectsRefCounterMismatch) {
  Cdm cdm;
  const RefLink l{ProcessId{1}, ObjectId{2}, ProcessId{3}};
  EXPECT_TRUE(cdm.observe({l, 5}));
  EXPECT_FALSE(cdm.observe({l, 6}))
      << "an invocation between the snapshots must abort the detection";
}

TEST(CdmAlgebra, ObserveDetectsPropCounterMismatch) {
  Cdm cdm;
  const PropLink l{ObjectId{2}, ProcessId{1}, ProcessId{3}};
  EXPECT_TRUE(cdm.observe({l, 1}));
  EXPECT_FALSE(cdm.observe({l, 2}));
}

TEST(CdmAlgebra, ObserveDistinguishesLinkKinds) {
  // A RefLink and a PropLink that happen to share ids are different links.
  Cdm cdm;
  EXPECT_TRUE(cdm.observe({RefLink{ProcessId{1}, ObjectId{2}, ProcessId{3}}, 5}));
  EXPECT_TRUE(cdm.observe({PropLink{ObjectId{2}, ProcessId{1}, ProcessId{3}}, 9}));
}

TEST(CdmAlgebra, ObserveDistinguishesDifferentLinks) {
  Cdm cdm;
  EXPECT_TRUE(cdm.observe({RefLink{ProcessId{1}, ObjectId{2}, ProcessId{3}}, 5}));
  EXPECT_TRUE(cdm.observe({RefLink{ProcessId{1}, ObjectId{2}, ProcessId{4}}, 7}));
}

TEST(CdmAlgebra, ToStringMatchesPaperNotation) {
  Cdm cdm;
  cdm.prop_deps.insert(rep(1, 2));
  cdm.ref_deps.insert(rep(1, 1));
  cdm.targets.insert(rep(2, 4));
  EXPECT_EQ(cdm.to_string(), "{ {o1@P2}, {o1@P1} } -> {o2@P4}");
}

TEST(CdmAlgebra, MessageWeightsCountElements) {
  CdmMsg msg;
  msg.cdm.prop_deps.insert(rep(1, 2));
  msg.cdm.ref_deps.insert(rep(1, 1));
  msg.cdm.targets.insert(rep(2, 4));
  ASSERT_TRUE(
      msg.cdm.observe({RefLink{ProcessId{1}, ObjectId{2}, ProcessId{3}}, 5}));
  EXPECT_EQ(msg.weight(), 1u + 3u + 1u);
  EXPECT_STREQ(msg.kind(), "CDM");
  EXPECT_FALSE(msg.reliable());
}

TEST(CdmAlgebra, CloneIsDeep) {
  CdmMsg msg;
  msg.cdm.ref_deps.insert(rep(1, 1));
  msg.entry = ObjectId{1};
  auto copy = msg.clone();
  msg.cdm.ref_deps.insert(rep(2, 2));
  const auto* typed = dynamic_cast<const CdmMsg*>(copy.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->cdm.ref_deps.size(), 1u);
}

TEST(CdmAlgebra, CutMessagesAreReliable) {
  EXPECT_TRUE(CutMsg{}.reliable());
  EXPECT_TRUE(PropCutMsg{}.reliable());
}

}  // namespace
}  // namespace rgc::gc
