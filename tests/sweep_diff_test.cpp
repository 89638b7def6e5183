// Differential tests: the split local collection (Lgc::mark + Lgc::scan +
// Lgc::apply, with the live-heap pass in the read-only scan) against the
// original one-pass sweep, and the suspicion-age digest that reads only
// the unrooted objects against the original walk over every classified
// object.  Both references live in sweep_reference.{h,cpp}.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/cluster.h"
#include "core/report.h"
#include "gc/adgc/adgc.h"
#include "gc/cycle/heuristics.h"
#include "gc/lgc/lgc.h"
#include "sweep_reference.h"
#include "workload/random_mutator.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;

/// Arms every third object of every process for finalization.
void arm_finalizers(Cluster& cluster) {
  for (ProcessId pid : cluster.process_ids()) {
    cluster.process(pid).heap().for_each(
        [](ObjectId id, std::uint32_t, rm::Object& obj) {
          if (raw(id) % 3 == 0) obj.finalizable = true;
        });
  }
}

void expect_same_result(const LgcResult& got, const LgcResult& want,
                        ProcessId pid, int round) {
  SCOPED_TRACE(testing::Message() << to_string(pid) << " round " << round);
  EXPECT_EQ(got.object_reach, want.object_reach);
  EXPECT_EQ(got.unrooted, want.unrooted);
  EXPECT_EQ(got.stub_reach, want.stub_reach);
  EXPECT_EQ(got.live_stubs, want.live_stubs);
  EXPECT_EQ(got.reclaimed, want.reclaimed);
  EXPECT_EQ(got.resurrected, want.resurrected);
  EXPECT_EQ(got.traced, want.traced);
}

void expect_same_ages(const SuspicionAgeTracker& got,
                      const SuspicionAgesReference& want,
                      const LgcResult& result) {
  for (const auto& [obj, age] : want.ages()) EXPECT_EQ(got.age(obj), age);
  for (const auto& [obj, mask] : result.object_reach) {
    EXPECT_EQ(got.age(obj), want.age(obj));
  }
  for (ObjectId obj : result.reclaimed) EXPECT_EQ(got.age(obj), 0u);
}

struct Totals {
  std::uint64_t reclaimed{0};
  std::uint64_t resurrected{0};
  std::uint64_t unrooted{0};
  std::uint64_t aged_resurrections{0};
};

/// Two clusters driven by the same random mutator; every round, each
/// process of one is collected by Lgc::collect and of the other by the
/// reference, both results feed the ADGC and a suspicion tracker, and the
/// results, ages and finally the whole JSON reports must agree.
Totals run_differential(FinalizeStrategy strategy, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.net.seed = seed;
  Cluster fast{cfg};
  Cluster ref{cfg};
  for (int i = 0; i < 4; ++i) {
    fast.add_process();
    ref.add_process();
  }
  workload::MutatorSpec spec;
  spec.seed = seed;
  spec.w_collect = 0;  // every collection below is the one under test
  spec.max_objects_per_process = 120;
  workload::RandomMutator fast_mutator{fast, spec};
  workload::RandomMutator ref_mutator{ref, spec};
  Finalizer fast_fin{strategy};
  Finalizer ref_fin{strategy};
  LgcConfig fast_cfg;
  fast_cfg.finalizer = &fast_fin;
  LgcConfig ref_cfg;
  ref_cfg.finalizer = &ref_fin;
  std::map<ProcessId, SuspicionAgeTracker> fast_ages;
  std::map<ProcessId, SuspicionAgesReference> ref_ages;

  Totals totals;
  for (int round = 0; round < 12; ++round) {
    fast_mutator.run(150);
    ref_mutator.run(150);
    fast.run_until_quiescent();
    ref.run_until_quiescent();
    if (round % 4 == 0) {
      arm_finalizers(fast);
      arm_finalizers(ref);
    }
    for (ProcessId pid : fast.process_ids()) {
      rm::Process& fp = fast.process(pid);
      rm::Process& rp = ref.process(pid);
      const LgcResult got = Lgc::collect(fp, fast_cfg);
      const LgcResult want = collect_reference(rp, ref_cfg);
      expect_same_result(got, want, pid, round);

      // Resurrected objects the tracker had already aged: the case where
      // an unclassified but present object must keep its age.
      for (const auto& [obj, age] : ref_ages[pid].ages()) {
        if (rp.has_replica(obj) && !want.object_reach.contains(obj)) {
          ++totals.aged_resurrections;
        }
      }
      fast_ages[pid].after_collection(fp, got);
      ref_ages[pid].after_collection(rp, want);
      expect_same_ages(fast_ages[pid], ref_ages[pid], want);

      Adgc::after_collection(fp, got);
      Adgc::after_collection(rp, want);
      totals.reclaimed += want.reclaimed.size();
      totals.resurrected += want.resurrected;
      totals.unrooted += want.unrooted.size();
    }
    fast.run_until_quiescent();
    ref.run_until_quiescent();
    if (testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(fast.total_objects(), ref.total_objects());
  EXPECT_EQ(core::make_report(fast).to_json(), core::make_report(ref).to_json());
  return totals;
}

TEST(SweepDiff, RandomHeapsMatchTheOnePassSweep) {
  for (std::uint64_t seed : {3u, 17u, 101u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Totals t = run_differential(FinalizeStrategy::kNone, seed);
    EXPECT_GT(t.reclaimed, 0u);
    EXPECT_GT(t.unrooted, 0u);
    EXPECT_EQ(t.resurrected, 0u);
  }
}

TEST(SweepDiff, ReRegisterResurrectionsMatchTheOnePassSweep) {
  for (std::uint64_t seed : {3u, 17u, 101u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Totals t = run_differential(FinalizeStrategy::kReRegister, seed);
    EXPECT_GT(t.reclaimed, 0u);
    EXPECT_GT(t.resurrected, 0u);
    EXPECT_GT(t.aged_resurrections, 0u);
  }
}

TEST(SweepDiff, FreshReconstructionsMatchTheOnePassSweep) {
  for (std::uint64_t seed : {3u, 17u, 101u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Totals t =
        run_differential(FinalizeStrategy::kReconstructionFresh, seed);
    EXPECT_GT(t.reclaimed, 0u);
    EXPECT_GT(t.resurrected, 0u);
    EXPECT_GT(t.aged_resurrections, 0u);
  }
}

TEST(SweepDiff, ResurrectedAgedObjectKeepsItsAge) {
  // b on p1 is first anchored only by p2's remote reference (aged once),
  // then loses that too while armed for finalization: the re-registering
  // finalizer resurrects it every collection, so it stays in the heap
  // without a reachability class — and keeps its age in both digests.
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  const ObjectId b = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.add_ref(p1, a, b);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();
  cluster.remove_ref(p1, a, b);

  rm::Process& proc = cluster.process(p1);
  SuspicionAgeTracker tracker;
  SuspicionAgesReference reference;
  const LgcResult scion_only = Lgc::collect(proc);
  ASSERT_EQ(scion_only.unrooted, std::vector<ObjectId>{b});
  tracker.after_collection(proc, scion_only);
  reference.after_collection(proc, scion_only);
  ASSERT_EQ(reference.age(b), 1u);
  EXPECT_EQ(tracker.age(b), 1u);

  // p2 drops its interest; its next stub set retires b's scion at p1.
  cluster.remove_ref(p2, a, b);
  cluster.collect(p2);
  cluster.run_until_quiescent();
  proc.heap().find(b)->finalizable = true;

  Finalizer fin{FinalizeStrategy::kReRegister};
  LgcConfig cfg;
  cfg.finalizer = &fin;
  for (int i = 0; i < 2; ++i) {
    const LgcResult r = Lgc::collect(proc, cfg);
    ASSERT_EQ(r.resurrected, 1u);
    ASSERT_FALSE(r.object_reach.contains(b));
    tracker.after_collection(proc, r);
    reference.after_collection(proc, r);
    EXPECT_EQ(reference.age(b), 1u);
    EXPECT_EQ(tracker.age(b), 1u);
  }

  // Disarmed, it is swept at last and both digests forget it.
  proc.heap().find(b)->finalizable = false;
  const LgcResult swept = Lgc::collect(proc, cfg);
  ASSERT_EQ(swept.reclaimed, std::vector<ObjectId>{b});
  tracker.after_collection(proc, swept);
  reference.after_collection(proc, swept);
  EXPECT_EQ(reference.age(b), 0u);
  EXPECT_EQ(tracker.age(b), 0u);
}

}  // namespace
}  // namespace rgc::gc
