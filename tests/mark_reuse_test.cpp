// Mark reuse: a collection of a process whose mutation epoch still equals
// the tag its node kept reuses the last result instead of tracing
// (Cluster::collect_nodes).  A differential test checks every collection —
// reused or fresh — against a fresh Lgc::mark + Lgc::scan of the same state
// over random operation sequences; the other tests pin each hazard of the
// reuse rule: the tag is taken before the protocol digest (which can
// dismantle a propagation tree), a resurrecting finalizer forbids reuse,
// and kill() drops the kept result.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "gc/lgc/lgc.h"
#include "obs/recorder.h"
#include "util/flat_map.h"
#include "workload/random_mutator.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;

std::uint64_t marks_reused(Cluster& cluster, ProcessId pid) {
  return cluster.process(pid).counters().marks_reused.value();
}

/// Arms every third object of every process for finalization.
void arm_finalizers(Cluster& cluster) {
  for (ProcessId pid : cluster.process_ids()) {
    cluster.process(pid).heap().for_each(
        [](ObjectId id, std::uint32_t, rm::Object& obj) {
          if (raw(id) % 3 == 0) obj.finalizable = true;
        });
  }
}

struct Counts {
  std::uint64_t fresh{0};
  std::uint64_t reused{0};
};

/// Collects `pid` through the cluster and compares the result with a fresh
/// mark + scan of the state the collection saw.
void collect_and_compare(Cluster& cluster, ProcessId pid, Counts& counts) {
  const rm::Process& proc = cluster.process(pid);
  LgcMark fresh = Lgc::mark(proc);
  Lgc::scan(proc, fresh);
  // The stub set a fresh apply would keep: every stub some trace reached.
  util::FlatMap<rm::StubKey, std::uint8_t> fresh_stubs;
  bool dead_stub = false;
  for (const auto& [key, stub] : proc.stubs()) {
    if (const std::uint8_t mask = stub.marks(fresh.epoch)) {
      fresh_stubs.append(key, mask);
    } else {
      dead_stub = true;
    }
  }

  const std::uint64_t reused_before = marks_reused(cluster, pid);
  const LgcResult& got = cluster.collect(pid);
  const bool reused = marks_reused(cluster, pid) != reused_before;
  SCOPED_TRACE(testing::Message() << to_string(pid)
                                  << (reused ? " reused" : " fresh"));
  EXPECT_EQ(got.object_reach, fresh.object_reach);
  EXPECT_EQ(got.unrooted, fresh.unrooted);
  EXPECT_EQ(got.stub_reach, fresh_stubs);
  EXPECT_EQ(got.live_stubs.size(), fresh_stubs.size());
  for (const auto& [key, mask] : fresh_stubs) {
    EXPECT_TRUE(got.live_stubs.contains(key));
  }
  if (!reused) {
    ++counts.fresh;
    return;
  }
  ++counts.reused;
  // A fresh collection would have had nothing to sweep, finalize or drop.
  EXPECT_TRUE(fresh.unmarked.empty());
  EXPECT_FALSE(dead_stub);
  EXPECT_TRUE(got.reclaimed.empty());
  EXPECT_EQ(got.resurrected, 0u);
  EXPECT_EQ(got.traced, 0u);
}

/// Random mutator rounds on `processes` processes; after each, several
/// collect-every-process-then-drain iterations (run_full_gc's acyclic
/// loop), with a few more operations slipped in between two of them.
Counts run_differential(FinalizeStrategy strategy, std::uint64_t seed,
                        int processes) {
  ClusterConfig cfg;
  cfg.net.seed = seed;
  cfg.finalize = strategy;
  Cluster cluster{cfg};
  for (int i = 0; i < processes; ++i) cluster.add_process();
  workload::MutatorSpec spec;
  spec.seed = seed;
  spec.w_collect = 0;  // every collection below is compared
  spec.max_objects_per_process = 120;
  workload::RandomMutator mutator{cluster, spec};

  Counts counts;
  for (int round = 0; round < 12; ++round) {
    mutator.run(150);
    cluster.run_until_quiescent();
    if (round % 4 == 0) arm_finalizers(cluster);
    for (int inner = 0; inner < 4; ++inner) {
      for (ProcessId pid : cluster.process_ids()) {
        collect_and_compare(cluster, pid, counts);
      }
      if (inner == 1) mutator.run(10);
      cluster.run_until_quiescent();
    }
    if (testing::Test::HasFailure()) break;
  }
  return counts;
}

TEST(MarkReuse, RandomOperationSequencesMatchAFreshMark) {
  for (const int processes : {2, 3, 4}) {
    for (const std::uint64_t seed : {3u, 17u, 101u}) {
      SCOPED_TRACE(testing::Message()
                   << processes << " processes, seed " << seed);
      const Counts c = run_differential(FinalizeStrategy::kNone, seed,
                                        processes);
      EXPECT_GT(c.reused, 0u);
      EXPECT_GT(c.fresh, 0u);
    }
  }
}

TEST(MarkReuse, ResurrectingFinalizersMatchAFreshMark) {
  for (const FinalizeStrategy strategy :
       {FinalizeStrategy::kReRegister,
        FinalizeStrategy::kReconstructionInPlace}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed);
      const Counts c = run_differential(strategy, seed, 3);
      EXPECT_GT(c.reused, 0u);
      EXPECT_GT(c.fresh, 0u);
    }
  }
}

TEST(MarkReuse, UnchangedProcessTracesNothing) {
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  const ObjectId a = cluster.new_object(p);
  const ObjectId b = cluster.new_object(p);
  cluster.add_root(p, a);
  cluster.add_ref(p, a, b);
  cluster.new_object(p);  // garbage

  const LgcResult first = cluster.collect(p);
  EXPECT_EQ(first.reclaimed.size(), 1u);
  EXPECT_EQ(first.traced, 2u);
  EXPECT_EQ(marks_reused(cluster, p), 0u);

  const LgcResult& second = cluster.collect(p);
  EXPECT_EQ(marks_reused(cluster, p), 1u);
  EXPECT_EQ(second.object_reach, first.object_reach);
  EXPECT_TRUE(second.reclaimed.empty());
  EXPECT_EQ(second.traced, 0u);
  const util::Histogram& traced =
      cluster.process(p).metrics().histogram("lgc.traced_per_collection");
  EXPECT_EQ(traced.count(), 2u);
  EXPECT_EQ(traced.sum(), 2u);
  EXPECT_EQ(cluster.metric_total("lgc.collections"), 2u);

  // The sweep event of the reused collection reports 0 traced.
  const auto run = obs::FlightRecorder::decode(
      cluster.recorder()->encode(cluster.recorder_stamp()));
  ASSERT_TRUE(run.has_value());
  std::vector<std::uint64_t> sweep_traced;
  for (const obs::RecEvent& e : run->events) {
    if (e.kind == static_cast<std::uint8_t>(obs::RecKind::kSweep)) {
      sweep_traced.push_back(e.b);
    }
  }
  EXPECT_EQ(sweep_traced, (std::vector<std::uint64_t>{2, 0}));

  // Any mutation makes the next collection trace again.
  cluster.remove_ref(p, a, b);
  const LgcResult& third = cluster.collect(p);
  EXPECT_EQ(marks_reused(cluster, p), 1u);
  EXPECT_EQ(third.reclaimed, std::vector<ObjectId>{b});
  EXPECT_EQ(third.traced, 1u);
}

TEST(MarkReuse, TagPrecedesTheTreeDismantledByTheDigest) {
  // x is the root of a propagation tree p0 -> p1.  Once unrooted and
  // reported unreachable by p1, p0's collection marks it only through its
  // outProp and the ADGC digest right after dismantles the tree.  The mark
  // predates that edit, so the next collection must trace afresh and sweep
  // x rather than reuse a mark that still holds it.
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.propagate(x, p0, p1);
  cluster.run_until_quiescent();
  cluster.remove_root(p0, x);

  cluster.collect(p1);  // p1 reports x unreachable
  cluster.run_until_quiescent();
  const LgcResult& dismantling = cluster.collect(p0);
  ASSERT_TRUE(dismantling.object_reach.contains(x));
  EXPECT_EQ(dismantling.object_reach.find(x)->second, kReachOutProp);
  ASSERT_TRUE(cluster.process(p0).out_props().empty());

  const LgcResult& next = cluster.collect(p0);
  EXPECT_EQ(marks_reused(cluster, p0), 0u);
  EXPECT_EQ(next.reclaimed, std::vector<ObjectId>{x});
}

TEST(MarkReuse, ResurrectedObjectIsSweptByTheNextCollection) {
  // kReconstructionInPlace resurrects once and does not re-arm: the next
  // collection, with no mutation between, must reclaim the object.
  ClusterConfig cfg;
  cfg.finalize = FinalizeStrategy::kReconstructionInPlace;
  Cluster cluster{cfg};
  const ProcessId p = cluster.add_process();
  const ObjectId x = cluster.new_object(p);
  cluster.process(p).heap().find(x)->finalizable = true;

  ASSERT_EQ(cluster.collect(p).resurrected, 1u);
  ASSERT_TRUE(cluster.process(p).heap().contains(x));
  const LgcResult& next = cluster.collect(p);
  EXPECT_EQ(marks_reused(cluster, p), 0u);
  EXPECT_EQ(next.reclaimed, std::vector<ObjectId>{x});
  EXPECT_FALSE(cluster.process(p).heap().contains(x));
}

TEST(MarkReuse, ReRegisteredObjectIsFinalizedEveryCollection) {
  // kReRegister re-arms: every collection finalizes and resurrects again.
  ClusterConfig cfg;
  cfg.finalize = FinalizeStrategy::kReRegister;
  Cluster cluster{cfg};
  const ProcessId p = cluster.add_process();
  const ObjectId x = cluster.new_object(p);
  cluster.process(p).heap().find(x)->finalizable = true;

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.collect(p).resurrected, 1u) << "collection " << i;
  }
  EXPECT_EQ(marks_reused(cluster, p), 0u);
  EXPECT_TRUE(cluster.process(p).heap().contains(x));
}

TEST(MarkReuse, RestartDropsTheKeptMark) {
  // The image holds y unrooted.  After y is rooted and collected, kill +
  // restart restores the image at an epoch equal to the kept tag — so only
  // kill() dropping the kept mark keeps the stale "y is rooted" from being
  // reused.
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  const ObjectId x = cluster.new_object(p);
  const ObjectId y = cluster.new_object(p);
  cluster.add_root(p, x);
  cluster.persist(p);
  cluster.add_root(p, y);
  EXPECT_TRUE(cluster.collect(p).reclaimed.empty());
  const std::uint64_t tag = cluster.process(p).mutation_epoch();

  cluster.kill(p);
  ASSERT_TRUE(cluster.restart(p));
  ASSERT_EQ(cluster.process(p).mutation_epoch(), tag);
  const LgcResult& after = cluster.collect(p);
  EXPECT_EQ(marks_reused(cluster, p), 0u);
  EXPECT_EQ(after.reclaimed, std::vector<ObjectId>{y});
}

}  // namespace
}  // namespace rgc::gc
