// Differential tests for the indexed CDM algebra: gc::Cdm must agree with
// the original scan-based algebra (cdm_reference.h) on random sequences of
// requirements, observations and visits, and — end to end, in both
// traversals — on every CDM a detection sends and on every verdict it
// reaches, including the cuts each verdict orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "cdm_reference.h"
#include "core/cluster.h"
#include "gc/cycle/cdm.h"
#include "gc/cycle/detector.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::DetectorMode;

bool same_observations(const std::vector<Observation>& a,
                       const std::vector<Observation>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Observation& x, const Observation& y) {
                      return x.link == y.link && x.counter == y.counter;
                    });
}

/// The reference keeps edges in arrival order, the indexed algebra sorted.
std::vector<std::pair<Element, Element>> sorted_edges(
    std::vector<std::pair<Element, Element>> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::size_t weight_of(const Cdm& cdm) {
  CdmMsg msg;
  msg.cdm = cdm;
  return msg.weight();
}

void expect_same(const Cdm& cdm, const CdmReference& ref,
                 const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(cdm.prop_deps, ref.prop_deps);
  ASSERT_EQ(cdm.ref_deps, ref.ref_deps);
  ASSERT_EQ(cdm.targets, ref.targets);
  ASSERT_EQ(cdm.dep_edges(), sorted_edges(ref.dep_edges));
  ASSERT_TRUE(same_observations(cdm.observations(), ref.observations));
  ASSERT_EQ(cdm.required_closure(), ref.required_closure());
  ASSERT_EQ(cdm.unresolved(), ref.unresolved());
  ASSERT_EQ(cdm.cycle_complete(), ref.cycle_complete());
  ASSERT_EQ(cdm.flat_unresolved(), ref.flat_unresolved());
  ASSERT_EQ(cdm.flat_complete(), ref.flat_complete());
  ASSERT_EQ(weight_of(cdm), ref.weight(cdm.pending_refs.size()));
}

TEST(CdmDiff, RandomSequencesMatchTheReference) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng{seed};
    // A small universe so requirements chain, repeat and close loops.
    const auto rnd = [&](std::uint32_t n) {
      return static_cast<std::uint32_t>(rng() % n);
    };
    const auto element = [&] {
      const ObjectId obj{1 + rnd(6)};
      const ProcessId at{rnd(3)};
      if (rnd(3) == 0) {
        return Element::make(RefLink{ProcessId{rnd(3)}, obj, at});
      }
      return Element::make(Replica{obj, at});
    };
    const auto link = [&]() -> std::variant<RefLink, PropLink> {
      if (rnd(2) == 0) {
        return RefLink{ProcessId{rnd(3)}, ObjectId{1 + rnd(3)}, ProcessId{rnd(3)}};
      }
      return PropLink{ObjectId{1 + rnd(3)}, ProcessId{rnd(3)}, ProcessId{rnd(3)}};
    };

    Cdm cdm;
    CdmReference ref;
    cdm.candidate = ref.candidate = Replica{ObjectId{1 + rnd(6)}, ProcessId{rnd(3)}};
    const int ops = 20 + static_cast<int>(rnd(120));
    for (int op = 0; op < ops; ++op) {
      const std::string context =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      switch (rnd(8)) {
        case 0:
        case 1:
        case 2: {
          const Element from = rnd(4) == 0 ? Element::make(cdm.candidate)
                                           : element();
          const Element on = element();
          const bool prop = rnd(2) == 0;
          cdm.require(from, on, prop);
          ref.require(from, on, prop);
          break;
        }
        case 3:
        case 4: {
          const Observation obs{link(), rnd(2)};
          ASSERT_EQ(cdm.observe(obs), ref.observe(obs)) << context;
          break;
        }
        case 5: {
          const Element e = rnd(5) == 0 ? Element::make(cdm.candidate)
                                        : element();
          cdm.targets.insert(e);
          ref.targets.insert(e);
          break;
        }
        case 6:
          cdm.pending_refs.push_back(Replica{ObjectId{rnd(6)}, ProcessId{rnd(3)}});
          break;
        default: {
          // A hop: the payload travels in a message, is duplicated by the
          // transport, and the receiver takes it — the indexes must ride
          // along through copies and moves.
          CdmMsg msg;
          msg.cdm = std::move(cdm);
          const auto copy = msg.clone();
          cdm = std::move(static_cast<CdmMsg&>(*copy).cdm);
          break;
        }
      }
      expect_same(cdm, ref, context);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CdmDiff, LateEdgesIntoTheClosureAreFollowed) {
  // An element's requirements may be recorded before anything the
  // candidate requires leads to it (a stub's context is required before
  // the remote scion side names the link); joining the closure later must
  // pull them in.
  Cdm cdm;
  CdmReference ref;
  cdm.candidate = ref.candidate = Replica{ObjectId{1}, ProcessId{0}};
  const Element a = Element::make(Replica{ObjectId{2}, ProcessId{1}});
  const Element b = Element::make(Replica{ObjectId{3}, ProcessId{2}});
  const Element c = Element::make(RefLink{ProcessId{2}, ObjectId{3}, ProcessId{1}});
  for (const auto& [from, on] : {std::pair{b, c}, std::pair{a, b},
                                 std::pair{Element::make(cdm.candidate), a}}) {
    cdm.require(from, on, false);
    ref.require(from, on, false);
  }
  expect_same(cdm, ref, "chain recorded back to front");
  EXPECT_TRUE(cdm.required_closure().contains(c));
}

TEST(CdmDiff, CandidateNamedAfterItsRequirementsStillGatesTheVerdict) {
  // The closure index is grown from the candidate.  A caller that records
  // requirements first and names (or renames) the candidate afterwards
  // must still get the candidate's closure: a stale, empty closure would
  // turn "candidate visited" alone into a garbage verdict.
  Cdm cdm;
  CdmReference ref;
  const Replica cand{ObjectId{1}, ProcessId{0}};
  const Element a = Element::make(Replica{ObjectId{2}, ProcessId{1}});
  const Element b = Element::make(Replica{ObjectId{3}, ProcessId{2}});
  const Element c = Element::make(RefLink{ProcessId{2}, ObjectId{3}, ProcessId{1}});
  cdm.require(Element::make(cand), a, true);
  ref.require(Element::make(cand), a, true);
  cdm.require(a, b, false);
  ref.require(a, b, false);
  cdm.candidate = ref.candidate = cand;
  cdm.targets.insert(Element::make(cand));
  ref.targets.insert(Element::make(cand));
  expect_same(cdm, ref, "candidate named after two requirements");
  EXPECT_FALSE(cdm.cycle_complete());

  cdm.require(b, c, false);  // regrows the index from the new candidate
  ref.require(b, c, false);
  expect_same(cdm, ref, "one more requirement");
  EXPECT_TRUE(cdm.required_closure().contains(c));

  cdm.candidate = ref.candidate = Replica{ObjectId{2}, ProcessId{1}};
  expect_same(cdm, ref, "candidate renamed");
  for (const Element& e : {a, b, c}) {
    cdm.targets.insert(e);
    ref.targets.insert(e);
  }
  expect_same(cdm, ref, "closure visited");
  EXPECT_TRUE(cdm.cycle_complete());
}

// ---- End to end --------------------------------------------------------------

/// Checks every CDM the detectors send against the reference algebra.  A
/// detector sends only payloads its traversal's matching judged
/// incomplete, so the reference must agree they are incomplete.
class SendChecker : public net::Network::Observer {
 public:
  explicit SendChecker(bool flat) : flat_(flat) {}

  void on_send(const net::Envelope& env) override {
    const auto* msg = dynamic_cast<const CdmMsg*>(env.msg);
    if (msg == nullptr) return;
    ++sent;
    const CdmReference ref = CdmReference::from(msg->cdm);
    if ((flat_ ? ref.flat_complete() : ref.cycle_complete()) ||
        ref.weight(msg->cdm.pending_refs.size()) != msg->weight() ||
        ref.unresolved() != msg->cdm.unresolved() ||
        ref.flat_unresolved() != msg->cdm.flat_unresolved()) {
      ++mismatches;
    }
  }

  std::uint64_t sent{0};
  std::uint64_t mismatches{0};

 private:
  bool flat_;
};

struct Topology {
  const char* name;
  void (*build)(Cluster&);
  /// One full GC's verdicts and CDM sends per traversal, as the scan-based
  /// algebra gives them.  Fig. 4 is live; the flat flood burns out on the
  /// branching {4,25,1} mesh (Fig. 9's '*' row).
  std::size_t ours_verdicts, ours_sent;
  std::size_t flat_verdicts, flat_sent;
};

// Under one verdict per cycle (Cluster::detect), a full GC starts one
// detection per process and queues the rest; a verdict covers its whole
// closure, so the queued starts inside it are skipped.
//  - Each mesh falls to its first wave, one verdict per process: {2,50}
//    from 101 verdicts and 4950 CDMs to 2 and 98 (49 hops each), {4,10}
//    from 41 and 780 to 4 and 76, {4,25,1} from 157 and 16224 to 4 and 414.
//  - Fig. 3's separate cycles still need their own verdicts, but the
//    replicas its earlier verdicts covered are not re-proved: 14 verdicts
//    and 77 CDMs become 9 and 51.
//  - Fig. 2 and Fig. 4 start nothing that a verdict covers.
//  - The flat rows do not move: the flat closure is the candidate alone,
//    so only suspects that already ran are ever covered, and each
//    detection's CDMs do not depend on when it starts.
const Topology kTopologies[] = {
    {"Fig. 2", [](Cluster& c) { workload::build_figure2(c); }, 4, 16, 4, 22},
    {"Fig. 3", [](Cluster& c) { workload::build_figure3(c); }, 9, 51, 10, 85},
    {"Fig. 4", [](Cluster& c) { workload::build_figure4(c); }, 0, 6, 0, 10},
    {"mesh {2,50}", [](Cluster& c) { workload::build_mesh(c, {2, 50}); },
     2, 98, 101, 29365},
    {"mesh {4,10}", [](Cluster& c) { workload::build_mesh(c, {4, 10}); },
     4, 76, 41, 4555},
    {"mesh {4,25,1}", [](Cluster& c) { workload::build_mesh(c, {4, 25, 1}); },
     4, 414, 0, 87286},
};

/// Every verdict orders one guarded cut per member of its closure that has
/// an incoming link to cut, candidate first; each must equal the cut the
/// scan-based algebra builds for that member.
void expect_reference_cuts(const Cdm& verdict, const CdmReference& ref) {
  const auto got = CycleDetector::make_cuts(verdict);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().first, verdict.candidate);
  std::vector<Replica> members;
  for (const Element& e : ref.required_closure()) members.push_back(e.replica);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  std::size_t expected = 0;
  for (const Replica& member : members) {
    SCOPED_TRACE(rgc::to_string(member));
    const CutMsg want =
        make_cut_reference(ref, verdict.detection_id, member);
    const auto it = std::find_if(got.begin(), got.end(), [&](const auto& c) {
      return c.first == member;
    });
    if (member != verdict.candidate && want.scion_cuts.empty() &&
        want.prop_cuts.empty()) {
      EXPECT_EQ(it, got.end()) << "nothing to cut, nothing sent";
      continue;
    }
    ++expected;
    ASSERT_NE(it, got.end());
    EXPECT_EQ(it->second.candidate, want.candidate);
    EXPECT_EQ(it->second.detection_id, verdict.detection_id);
    EXPECT_EQ(it->second.scion_cuts, want.scion_cuts);
    EXPECT_EQ(it->second.prop_cuts, want.prop_cuts);
  }
  EXPECT_EQ(got.size(), expected);
}

TEST(CdmDiff, DetectionsAgreeWithTheReferenceEndToEnd) {
  for (const Topology& topo : kTopologies) {
    for (const DetectorMode mode :
         {DetectorMode::kReplicationAware, DetectorMode::kBaseline}) {
      const bool flat = mode == DetectorMode::kBaseline;
      SCOPED_TRACE(std::string(topo.name) + (flat ? " flat" : " ours"));
      SendChecker checker{flat};
      ClusterConfig cfg;
      cfg.mode = mode;
      Cluster cluster{cfg};
      cluster.network().add_observer(&checker);
      topo.build(cluster);
      cluster.run_full_gc();

      EXPECT_EQ(checker.sent, flat ? topo.flat_sent : topo.ours_sent);
      EXPECT_EQ(checker.mismatches, 0u);
      // Every verdict the indexed algebra reached is one the reference
      // reaches on the same payload, and orders the same cuts.
      std::size_t reference_verdicts = 0;
      for (const Cdm& verdict : cluster.cycles_found()) {
        const CdmReference ref = CdmReference::from(verdict);
        if (flat ? ref.flat_complete() : ref.cycle_complete()) {
          ++reference_verdicts;
        }
        expect_reference_cuts(verdict, ref);
      }
      EXPECT_EQ(reference_verdicts, cluster.cycles_found().size());
      EXPECT_EQ(cluster.cycles_found().size(),
                flat ? topo.flat_verdicts : topo.ours_verdicts);
    }
  }
}

}  // namespace
}  // namespace rgc::gc
