// Unit/integration tests: cycle-candidate selection — the suspicion-age
// tracker that orders budgeted starts, run_full_gc over the exhaustive
// candidate set, and collections that never summarize.
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

using core::Cluster;

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

// ---- run_full_gc over the exhaustive candidate set ------------------------

TEST(Candidates, CollectsTheFigure2Cycle) {
  Cluster cluster;
  workload::build_figure2(cluster);
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(Candidates, CollectsTheFigure3Graph) {
  Cluster cluster;
  workload::build_figure3(cluster);
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);
}

TEST(Candidates, NeverTouchesLiveData) {
  Cluster cluster;
  const auto f = workload::build_figure4(cluster);  // live cycle
  cluster.run_full_gc();
  EXPECT_TRUE(cluster.process(f.p1).has_replica(f.x));
  EXPECT_TRUE(cluster.process(f.p4).has_replica(f.y));
  EXPECT_TRUE(core::Oracle::analyze(cluster).violations.empty());
}

TEST(Candidates, LiveRemotelyReferencedDataSurvives) {
  // Live data referenced only remotely is never locally root-reachable, so
  // every round suspects it again; each detection must abort, not cut.
  Cluster cluster;
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
  EXPECT_GT(stats.detections_started, 0u) << "v is a suspect";
  EXPECT_TRUE(core::Oracle::analyze(cluster).violations.empty());
}

// ---- A collection never summarizes --------------------------------------

/// One NewSetStubs send: sender, receiver, stub anchors, wire weight.
struct NssSend {
  std::uint64_t src;
  std::uint64_t dst;
  std::vector<std::uint64_t> anchors;
  std::size_t weight;
  bool operator==(const NssSend&) const = default;
};

void PrintTo(const NssSend& s, std::ostream* os) {
  *os << "P" << s.src << "->P" << s.dst << " anchors[";
  for (std::uint64_t a : s.anchors) *os << ' ' << a;
  *os << " ] weight " << s.weight;
}

struct NssTap final : net::Network::Observer {
  std::vector<NssSend> sends;
  void on_send(const net::Envelope& env) override {
    if (const auto* m = dynamic_cast<const NewSetStubsMsg*>(env.msg)) {
      NssSend s{raw(env.src), raw(env.dst), {}, m->weight()};
      for (ObjectId a : m->stub_anchors) s.anchors.push_back(raw(a));
      sends.push_back(std::move(s));
    }
  }
};

TEST(Candidates, CollectionNeverSummarizes) {
  // Figure 2's garbage cycle beside a live anchor b on p1 held only by a
  // rooted remote replica of a on p2, then two collect_all rounds with
  // the NewSetStubs traffic tapped.
  Cluster cluster;
  const auto f = workload::build_figure2(cluster);
  const ObjectId a = cluster.new_object(f.p1);
  const ObjectId b = cluster.new_object(f.p1);
  cluster.add_root(f.p1, a);
  cluster.add_ref(f.p1, a, b);
  cluster.propagate(a, f.p1, f.p2);
  cluster.run_until_quiescent();
  cluster.add_root(f.p2, a);
  cluster.remove_root(f.p1, a);

  auto samples = [&cluster](const char* name) -> std::uint64_t {
    const util::Histogram* h = cluster.profile().find_histogram(name);
    return h == nullptr ? 0 : h->count();
  };
  const std::uint64_t snapshot_samples = samples("cycle.summarize_us");
  NssTap tap;
  cluster.network().add_observer(&tap);
  for (int i = 0; i < 2; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  EXPECT_EQ(samples("lgc.summarize_us"), 0u);
  EXPECT_EQ(samples("cycle.summarize_us"), snapshot_samples);

  // NewSetStubs carries the live stub anchors and nothing else.
  const std::vector<NssSend> expected = {
      {1, 0, {5}, 2}, {1, 3, {1}, 2}, {2, 0, {0}, 2},
      {1, 0, {5}, 2}, {1, 3, {1}, 2}, {2, 0, {0}, 2},
  };
  EXPECT_EQ(tap.sends, expected);
}

}  // namespace
}  // namespace rgc::gc
