// Unit/integration tests: cycle-candidate heuristics — the Maheshwari
// distance scheme piggybacked on NewSetStubs and the suspicion-age
// tracker — plus run_full_gc under each candidate policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/oracle.h"
#include "gc/adgc/adgc.h"
#include "gc/cycle/heuristics.h"
#include "workload/figures.h"

namespace rgc::gc {
namespace {

using core::CandidatePolicy;
using core::Cluster;
using core::ClusterConfig;

ClusterConfig with_policy(CandidatePolicy policy, std::uint32_t threshold = 3) {
  ClusterConfig cfg;
  cfg.candidates = policy;
  cfg.candidate_threshold = threshold;
  return cfg;
}

// ---- SuspicionAgeTracker -------------------------------------------------

TEST(SuspicionAge, RemoteOnlySurvivorsAge) {
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  auto& tracker = cluster.suspicion_tracker(f.p1);
  // The construction's settle() already aged the cycle member; the
  // property under test is that each further collection ages it again.
  const auto age0 = tracker.age(f.x);
  for (int i = 0; i < 3; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_GE(tracker.age(f.x), age0 + 3) << "cycle member ages every collection";
}

TEST(SuspicionAge, RootReachabilityResetsTheAge) {
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  cluster.collect_all();
  cluster.run_until_quiescent();
  cluster.collect_all();
  cluster.run_until_quiescent();
  EXPECT_GT(cluster.suspicion_tracker(f.p1).age(f.x), 0u);
  cluster.add_root(f.p1, f.x);  // resurrect
  cluster.collect(f.p1);
  EXPECT_EQ(cluster.suspicion_tracker(f.p1).age(f.x), 0u);
}

TEST(SuspicionAge, SweptObjectsAreForgotten) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.add_ref(p1, a, b);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  // Drop the local path: b survives at p1 only through the scion (p2's
  // replica of a still references it).
  cluster.remove_ref(p1, a, b);
  cluster.collect(p1);
  cluster.run_until_quiescent();
  EXPECT_GT(cluster.suspicion_tracker(p1).age(b), 0u);  // scion-anchored
  // Drop the remote interest: b dies; its age entry must go with it.
  cluster.remove_ref(p2, a, b);
  for (int i = 0; i < 4; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_EQ(cluster.suspicion_tracker(p1).age(b), 0u);
}

// ---- DistanceHeuristic ---------------------------------------------------

TEST(Distance, LiveAnchorsStabilizeBelowThreshold) {
  Cluster cluster{with_policy(CandidatePolicy::kDistance, 4)};
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.add_ref(p1, a, b);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.add_root(p2, a);  // live remote holder: stub is root-reachable

  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  // b's scion (from p2) keeps receiving distance 1 announcements.
  EXPECT_LT(cluster.distance_heuristic(p1).estimate(b), 4u);
  EXPECT_TRUE(cluster.distance_heuristic(p1).suspects().empty());
}

TEST(Distance, CycleMembersGrowPastThreshold) {
  Cluster cluster{with_policy(CandidatePolicy::kDistance, 4)};
  const auto f = workload::build_figure2(cluster);
  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  const auto suspects_p1 = cluster.distance_heuristic(f.p1).suspects();
  EXPECT_TRUE(std::find(suspects_p1.begin(), suspects_p1.end(), f.x) !=
              suspects_p1.end())
      << "the cycle member's distance estimate must diverge";
}

TEST(Distance, PropOnlyReplicasAgeLocally) {
  Cluster cluster{with_policy(CandidatePolicy::kDistance, 3)};
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.propagate(a, p2, p1);  // prop cycle: no scions anywhere
  cluster.run_until_quiescent();
  for (int i = 0; i < 4; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  const auto suspects = cluster.distance_heuristic(p1).suspects();
  EXPECT_TRUE(std::find(suspects.begin(), suspects.end(), a) != suspects.end());
}

// ---- run_full_gc under each policy ----------------------------------------

// gtest prints a parameter's raw bytes into each test's name, so the
// bytes between `policy` and `name` are spelled out and zeroed: left as
// padding they held stack garbage and the names changed from build to
// build.
struct PolicyCase {
  CandidatePolicy policy;
  std::uint32_t zero = 0;
  const char* name;
};
static_assert(sizeof(PolicyCase) ==
              sizeof(CandidatePolicy) + sizeof(std::uint32_t) + sizeof(const char*));

class PolicyDriven : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyDriven, CollectsTheFigure2Cycle) {
  Cluster cluster{with_policy(GetParam().policy)};
  workload::build_figure2(cluster);
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST_P(PolicyDriven, CollectsTheFigure3Graph) {
  Cluster cluster{with_policy(GetParam().policy)};
  workload::build_figure3(cluster);
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST_P(PolicyDriven, NeverTouchesLiveData) {
  Cluster cluster{with_policy(GetParam().policy)};
  const auto f = workload::build_figure4(cluster);  // live cycle
  cluster.run_full_gc();
  EXPECT_TRUE(cluster.process(f.p1).has_replica(f.x));
  EXPECT_TRUE(cluster.process(f.p4).has_replica(f.y));
  EXPECT_TRUE(core::Oracle::analyze(cluster).violations.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyDriven,
    ::testing::Values(
        PolicyCase{.policy = CandidatePolicy::kExhaustive, .name = "exhaustive"},
        PolicyCase{.policy = CandidatePolicy::kDistance, .name = "distance"}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

TEST(Policies, DistanceHeuristicSkipsLiveRemotelyReferencedData) {
  // Live data referenced only remotely is exactly what the exhaustive
  // policy keeps re-suspecting (it is never locally root-reachable) and
  // what the distance heuristic correctly clears: the live holder's side
  // announces distance 1 every round.
  auto detections = [](CandidatePolicy policy) {
    Cluster cluster{with_policy(policy, 3)};
    const auto f = workload::build_figure2(cluster);
    // v lives on p1; its only anchor is the rooted remote holder w on p4.
    const ObjectId v = cluster.new_object(f.p1);
    const ObjectId w = cluster.new_object(f.p4);
    cluster.add_root(f.p4, w);
    cluster.add_root(f.p1, v);
    workload::make_remote_ref(cluster, f.p4, w, f.p1, v);
    cluster.remove_root(f.p1, v);
    workload::settle(cluster);

    const auto stats = cluster.run_full_gc();
    EXPECT_TRUE(cluster.process(f.p1).has_replica(v)) << "v is live";
    return stats.detections_started;
  };
  const auto exhaustive = detections(CandidatePolicy::kExhaustive);
  const auto distance = detections(CandidatePolicy::kDistance);
  EXPECT_LT(distance, exhaustive)
      << "the distance heuristic must not keep suspecting live data";
}

// ---- Post-collection summaries feed the distance policy only -------------

/// One NewSetStubs send: sender, receiver, stub anchors, estimates.
struct NssSend {
  std::uint64_t src;
  std::uint64_t dst;
  std::vector<std::uint64_t> anchors;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> distances;
  bool operator==(const NssSend&) const = default;
};

void PrintTo(const NssSend& s, std::ostream* os) {
  *os << "P" << s.src << "->P" << s.dst << " anchors[";
  for (std::uint64_t a : s.anchors) *os << ' ' << a;
  *os << " ] distances[";
  for (const auto& [obj, d] : s.distances) *os << ' ' << obj << ':' << d;
  *os << " ]";
}

struct NssTap final : net::Network::Observer {
  std::vector<NssSend> sends;
  void on_send(const net::Envelope& env) override {
    if (const auto* m = dynamic_cast<const NewSetStubsMsg*>(env.msg)) {
      NssSend s{raw(env.src), raw(env.dst), {}, {}};
      for (ObjectId a : m->stub_anchors) s.anchors.push_back(raw(a));
      for (const auto& [obj, d] : m->distances) {
        s.distances.emplace_back(raw(obj), d);
      }
      sends.push_back(std::move(s));
    }
  }
};

/// Figure 2's garbage cycle beside a live anchor b on p1 held only by a
/// rooted remote replica of a on p2, then two collect_all rounds with the
/// NewSetStubs traffic tapped.  Returns how many lgc.summarize_us samples
/// those two rounds recorded.
std::uint64_t tap_collections(CandidatePolicy policy, NssTap& tap) {
  Cluster cluster{with_policy(policy, 4)};
  const auto f = workload::build_figure2(cluster);
  const ObjectId a = cluster.new_object(f.p1);
  const ObjectId b = cluster.new_object(f.p1);
  cluster.add_root(f.p1, a);
  cluster.add_ref(f.p1, a, b);
  cluster.propagate(a, f.p1, f.p2);
  cluster.run_until_quiescent();
  cluster.add_root(f.p2, a);
  cluster.remove_root(f.p1, a);

  auto summarize_samples = [&cluster] {
    const util::Histogram* h =
        cluster.profile().find_histogram("lgc.summarize_us");
    return h == nullptr ? 0 : h->count();
  };
  const std::uint64_t before = summarize_samples();
  cluster.network().add_observer(&tap);
  for (int i = 0; i < 2; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  return summarize_samples() - before;
}

TEST(Policies, OnlyTheDistancePolicySummarizesAfterCollection) {
  NssTap exhaustive;
  NssTap distance;
  EXPECT_EQ(tap_collections(CandidatePolicy::kExhaustive, exhaustive), 0u)
      << "no policy but kDistance reads a post-collection summary";
  EXPECT_EQ(tap_collections(CandidatePolicy::kDistance, distance), 2u)
      << "one summarize round per collect_all";

  // The same stub sets flow under both policies; only kDistance attaches
  // estimates.
  ASSERT_EQ(exhaustive.sends.size(), distance.sends.size());
  for (std::size_t i = 0; i < exhaustive.sends.size(); ++i) {
    EXPECT_TRUE(exhaustive.sends[i].distances.empty());
    NssSend stripped = distance.sends[i];
    stripped.distances.clear();
    EXPECT_EQ(exhaustive.sends[i], stripped);
  }
  // The distance announcements, as measured before collections stopped
  // summarizing under the other policies.
  constexpr std::uint32_t kInf = kInfiniteDistance;
  const std::vector<NssSend> expected = {
      {1, 0, {5}, {{5, 1}}}, {1, 3, {1}, {{1, kInf}}}, {2, 0, {0}, {{0, kInf}}},
      {1, 0, {5}, {{5, 1}}}, {1, 3, {1}, {{1, kInf}}}, {2, 0, {0}, {{0, kInf}}},
  };
  EXPECT_EQ(distance.sends, expected);
}

}  // namespace
}  // namespace rgc::gc
