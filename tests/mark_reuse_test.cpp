// Mark reuse: a collection of a process whose mutation epoch still equals
// the tag its node kept reuses the last result instead of tracing, and one
// whose root epoch still equals its tag retraces only the remote families
// (scions, inProps, outProps) and keeps the root family's classes
// (Cluster::collect_nodes, gc::Lgc::mark_remote).  A differential test
// checks every collection — reused, remote-only or fresh — against a fresh
// Lgc::mark + Lgc::scan of the same state over random operation sequences;
// the other tests pin each hazard of the rule: every change the root trace
// reads moves the root epoch (object creation, reference assignment,
// replica content delivery), the tags are taken before the protocol digest
// (which can dismantle a propagation tree), a resurrecting finalizer
// forbids both shortcuts, kill() drops the kept result, and a remote
// closure large beside the heap is not kept.  Cluster::metric_total's
// count across a restart and a big_heap-shaped run_full_gc ride along.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/cluster.h"
#include "core/oracle.h"
#include "gc/lgc/lgc.h"
#include "obs/recorder.h"
#include "util/flat_map.h"
#include "workload/random_mutator.h"
#include "workload/trees.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;

std::uint64_t marks_reused(Cluster& cluster, ProcessId pid) {
  return cluster.process(pid).counters().marks_reused.value();
}

std::uint64_t marks_remote(Cluster& cluster, ProcessId pid) {
  return cluster.process(pid).counters().marks_remote.value();
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

/// Visits a fresh trace of the three remote families makes from `proc`'s
/// current state: all a remote-only collection of it may trace.
std::uint64_t remote_visits(const rm::Process& proc) {
  proc.begin_mark_epoch();
  std::uint64_t traced = 0;
  std::vector<ObjectId> seeds;
  for (const auto& [key, scion] : proc.scions()) seeds.push_back(key.anchor);
  Lgc::trace(proc, seeds, kReachScion, &traced);
  seeds.clear();
  for (const auto& e : proc.in_props()) seeds.push_back(e.object);
  Lgc::trace(proc, seeds, kReachInProp, &traced);
  seeds.clear();
  for (const auto& e : proc.out_props()) seeds.push_back(e.object);
  Lgc::trace(proc, seeds, kReachOutProp, &traced);
  return traced;
}

struct Counts {
  std::uint64_t fresh{0};
  std::uint64_t remote{0};
  std::uint64_t reused{0};
};

/// Collects `pid` through the cluster and compares the result with a fresh
/// mark + scan of the state the collection saw.
void collect_and_compare(Cluster& cluster, ProcessId pid, Counts& counts) {
  const rm::Process& proc = cluster.process(pid);
  const std::uint64_t remote_cost = remote_visits(proc);
  LgcMark fresh = Lgc::mark(proc);
  Lgc::scan(proc, fresh);
  // The remote closure, kept or not: what some non-root family reached.
  std::vector<ObjectId> fresh_remote;
  for (const auto& [id, mask] : fresh.result.object_reach) {
    if (mask != kReachRoot) fresh_remote.push_back(id);
  }
  std::vector<rm::StubKey> fresh_remote_stubs;
  for (const auto& [key, mask] : fresh.result.stub_reach) {
    if (mask != kReachRoot) fresh_remote_stubs.push_back(key);
  }

  const std::uint64_t reused_before = marks_reused(cluster, pid);
  const std::uint64_t remote_before = marks_remote(cluster, pid);
  const LgcResult& got = cluster.collect(pid);
  const bool reused = marks_reused(cluster, pid) != reused_before;
  const bool remote = marks_remote(cluster, pid) != remote_before;
  SCOPED_TRACE(testing::Message()
               << to_string(pid)
               << (reused ? " reused" : remote ? " remote-only" : " fresh"));
  EXPECT_EQ(got.object_reach, fresh.result.object_reach);
  EXPECT_EQ(got.unrooted, fresh.result.unrooted);
  EXPECT_EQ(got.stub_reach, fresh.result.stub_reach);
  if (got.remote_kept) {
    std::vector<ObjectId> got_remote = got.remote_objects;
    std::vector<rm::StubKey> got_remote_stubs = got.remote_stubs;
    std::sort(got_remote.begin(), got_remote.end());
    std::sort(got_remote_stubs.begin(), got_remote_stubs.end());
    EXPECT_EQ(got_remote, fresh_remote);
    EXPECT_EQ(got_remote_stubs, fresh_remote_stubs);
  }

  if (reused) {
    ++counts.reused;
    // A fresh collection would have had nothing to sweep, finalize or drop.
    EXPECT_TRUE(fresh.unmarked.empty());
    EXPECT_TRUE(fresh.dead_stubs.empty());
    EXPECT_TRUE(got.reclaimed.empty());
    EXPECT_EQ(got.resurrected, 0u);
    EXPECT_EQ(got.traced, 0u);
    return;
  }
  // What a fresh collection would have swept: reclaimed or resurrected.
  EXPECT_EQ(got.reclaimed.size() + got.resurrected, fresh.unmarked.size());
  EXPECT_TRUE(std::includes(fresh.unmarked.begin(), fresh.unmarked.end(),
                            got.reclaimed.begin(), got.reclaimed.end()));
  for (const rm::StubKey& key : fresh.dead_stubs) {
    EXPECT_EQ(proc.find_stub(key), nullptr);
  }
  if (remote) {
    ++counts.remote;
    EXPECT_EQ(got.traced, remote_cost);
  } else {
    ++counts.fresh;
    EXPECT_EQ(got.traced, fresh.traced);
  }
}

/// Random mutator rounds on `processes` processes; after each, several
/// collect-every-process-then-drain iterations (run_full_gc's acyclic
/// loop), with a few more operations slipped in between two of them.
/// `ballast` rooted objects per process (one chain) keep the remote
/// closure small beside the heap, so remote-only marks run.
Counts run_differential(FinalizeStrategy strategy, std::uint64_t seed,
                        int processes, int ballast) {
  ClusterConfig cfg;
  cfg.net.seed = seed;
  cfg.finalize = strategy;
  Cluster cluster{cfg};
  for (int i = 0; i < processes; ++i) {
    const ProcessId pid = cluster.add_process();
    ObjectId prev = kNoObject;
    for (int k = 0; k < ballast; ++k) {
      const ObjectId obj = cluster.new_object(pid);
      if (k == 0) {
        cluster.add_root(pid, obj);
      } else {
        cluster.add_ref(pid, prev, obj);
      }
      prev = obj;
    }
  }
  workload::MutatorSpec spec;
  spec.seed = seed;
  spec.w_collect = 0;  // every collection below is compared
  spec.max_objects_per_process = 120 + static_cast<std::size_t>(ballast);
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
      for (const int ballast : {0, 400}) {
        SCOPED_TRACE(testing::Message() << processes << " processes, seed "
                                        << seed << ", ballast " << ballast);
        const Counts c = run_differential(FinalizeStrategy::kNone, seed,
                                          processes, ballast);
        EXPECT_GT(c.fresh, 0u);
        EXPECT_GT(ballast == 0 ? c.reused : c.remote, 0u);
      }
    }
  }
}

TEST(MarkReuse, ResurrectingFinalizersMatchAFreshMark) {
  for (const FinalizeStrategy strategy :
       {FinalizeStrategy::kReRegister,
        FinalizeStrategy::kReconstructionInPlace}) {
    for (const std::uint64_t seed : {3u, 17u}) {
      for (const int ballast : {0, 400}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", ballast "
                                        << ballast);
        const Counts c = run_differential(strategy, seed, 3, ballast);
        EXPECT_GT(c.fresh, 0u);
        if (ballast == 0) {
          EXPECT_GT(c.reused, 0u);
        } else if (strategy == FinalizeStrategy::kReconstructionInPlace) {
          // kReRegister re-arms what it resurrects: such an object
          // resurrects at every collection, and its process never takes a
          // shortcut again.
          EXPECT_GT(c.remote, 0u);
        }
      }
    }
  }
}

TEST(MarkReuse, LargeRemoteClosureIsNotKept) {
  // A process whose objects are nearly all replicas (graph_store's shards)
  // keeps no remote closure, so its collections pay nothing for one and
  // never retrace it alone.
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.propagate(x, p0, p1);
  cluster.run_until_quiescent();
  const LgcResult& first = cluster.collect(p1);
  EXPECT_FALSE(first.remote_kept);
  EXPECT_TRUE(first.remote_objects.empty());
  cluster.process(p1).note_remote_mutation();
  cluster.collect(p1);
  EXPECT_EQ(marks_remote(cluster, p1), 0u);
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
  EXPECT_EQ(marks_remote(cluster, p), 0u);
  EXPECT_EQ(third.reclaimed, std::vector<ObjectId>{b});
  EXPECT_EQ(third.traced, 1u);
}

/// p0 holds `rooted` live objects, a rooted carrier propagated to p1, and
/// `held`, which only p1's replica of the carrier references: a scion on
/// p0 is all that keeps it, and p0's first (fresh) collection says so.
/// With enough rooted objects the remote closure is small enough to keep.
struct ScionOnly {
  Cluster cluster;
  ProcessId p0;
  ProcessId p1;
  ObjectId carrier;
  ObjectId held;
};

void build_scion_only(ScionOnly& s, int rooted) {
  s.p0 = s.cluster.add_process();
  s.p1 = s.cluster.add_process();
  for (int i = 0; i < rooted; ++i) {
    s.cluster.add_root(s.p0, s.cluster.new_object(s.p0));
  }
  s.carrier = s.cluster.new_object(s.p0);
  s.held = s.cluster.new_object(s.p0);
  s.cluster.add_root(s.p0, s.carrier);
  s.cluster.add_ref(s.p0, s.carrier, s.held);
  s.cluster.propagate(s.carrier, s.p0, s.p1);  // scion for held on p0
  s.cluster.run_until_quiescent();
  s.cluster.add_root(s.p1, s.carrier);
  s.cluster.remove_ref(s.p0, s.carrier, s.held);
  ASSERT_EQ(s.cluster.collect(s.p0).object_reach.at(s.held), kReachScion);
}

/// p1 drops its reference to held and announces its stub set without it:
/// p0 deletes the scion, a change to nothing but its scion table.
void delete_scion(ScionOnly& s) {
  s.cluster.remove_ref(s.p1, s.carrier, s.held);
  s.cluster.collect(s.p1);
  s.cluster.run_until_quiescent();
  ASSERT_TRUE(s.cluster.process(s.p0).scions().empty());
}

TEST(MarkReuse, ScionDeletionRetracesOnlyTheRemoteClosure) {
  ScionOnly s;
  build_scion_only(s, 50);
  delete_scion(s);
  const LgcResult& next = s.cluster.collect(s.p0);
  EXPECT_EQ(marks_remote(s.cluster, s.p0), 1u);
  EXPECT_EQ(next.reclaimed, std::vector<ObjectId>{s.held});
  EXPECT_EQ(next.traced, 1u);  // the carrier, through its outProp
  EXPECT_TRUE(next.unrooted.empty());
  EXPECT_EQ(next.object_reach.size(), 51u);
}

TEST(MarkReuse, NewObjectIsSweptAfterARemoteChange) {
  // Creation moves the root epoch: the kept classes know nothing of the
  // new object, so a remote-only collection could never sweep it.
  ScionOnly s;
  build_scion_only(s, 50);
  ASSERT_TRUE(s.cluster.collect(s.p0).remote_kept);
  const ObjectId fresh = s.cluster.new_object(s.p0);
  delete_scion(s);
  const LgcResult& next = s.cluster.collect(s.p0);
  EXPECT_EQ(marks_remote(s.cluster, s.p0), 0u);
  EXPECT_EQ(next.reclaimed, (std::vector<ObjectId>{s.held, fresh}));
}

TEST(MarkReuse, ReferenceToAScionOnlyObjectKeepsItWhenTheScionGoes) {
  // add_ref moves the root epoch: held's kept class says only the scion
  // reaches it, and the scion is gone, but a rooted object now refers to
  // it.
  ScionOnly s;
  build_scion_only(s, 50);
  const ObjectId anchor = s.cluster.new_object(s.p0);
  s.cluster.add_root(s.p0, anchor);
  const LgcResult& kept = s.cluster.collect(s.p0);
  ASSERT_EQ(kept.object_reach.at(s.held), kReachScion);
  ASSERT_TRUE(kept.remote_kept);
  s.cluster.add_ref(s.p0, anchor, s.held);
  delete_scion(s);
  Counts counts;
  collect_and_compare(s.cluster, s.p0, counts);
  EXPECT_EQ(counts.fresh, 1u);
  EXPECT_TRUE(s.cluster.process(s.p0).has_replica(s.held));
  EXPECT_EQ(s.cluster.collect(s.p0).object_reach.at(s.held), kReachRoot);
}

TEST(MarkReuse, PropagationRewritingAReplicaRetracesTheRoots) {
  // x and y are replicated p0 -> p1, and p1 roots its replica of x, which
  // references y.  Re-propagating x without that reference rewrites p1's
  // replica: the delivery moves p1's root epoch, so p1's next collection
  // sees y anchored by its inProp alone.
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  for (int i = 0; i < 16; ++i) cluster.add_root(p1, cluster.new_object(p1));
  const ObjectId x = cluster.new_object(p0);
  const ObjectId y = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.add_root(p0, y);
  cluster.add_ref(p0, x, y);
  cluster.propagate(y, p0, p1);
  cluster.propagate(x, p0, p1);
  cluster.run_until_quiescent();
  cluster.add_root(p1, x);
  const LgcResult& kept = cluster.collect(p1);
  ASSERT_EQ(kept.object_reach.at(y), kReachRoot | kReachInProp);
  ASSERT_TRUE(kept.remote_kept);

  cluster.remove_ref(p0, x, y);
  cluster.propagate(x, p0, p1);
  cluster.run_until_quiescent();
  Counts counts;
  collect_and_compare(cluster, p1, counts);
  EXPECT_EQ(counts.fresh, 1u);
  EXPECT_EQ(cluster.collect(p1).object_reach.at(y), kReachInProp);
}

TEST(MarkReuse, TagPrecedesTheTreeDismantledByTheDigest) {
  // x is the root of a propagation tree p0 -> p1.  Once unrooted and
  // reported unreachable by p1, p0's collection marks it only through its
  // outProp and the ADGC digest right after dismantles the tree.  The mark
  // predates that edit, so the next collection must retrace the remote
  // side and sweep x rather than reuse a mark that still holds it.
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  for (int i = 0; i < 8; ++i) cluster.add_root(p0, cluster.new_object(p0));
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
  EXPECT_EQ(marks_remote(cluster, p0), 1u);
  EXPECT_EQ(next.reclaimed, std::vector<ObjectId>{x});
}

TEST(MarkReuse, ResurrectedObjectIsSweptByTheNextCollection) {
  // kReconstructionInPlace resurrects once and does not re-arm: the next
  // collection, with no mutation between, must reclaim the object.  The
  // kept classes do not hold it, so neither shortcut may run.
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
  EXPECT_EQ(marks_remote(cluster, p), 0u);
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
  EXPECT_EQ(marks_remote(cluster, p), 0u);
  EXPECT_TRUE(cluster.process(p).heap().contains(x));
}

TEST(MarkReuse, RestartDropsTheKeptMark) {
  // The image holds y unrooted.  After y is rooted and collected, kill +
  // restart restores the image at epochs equal to the kept tags — so only
  // kill() dropping the kept mark keeps the stale "y is rooted" from being
  // reused or built on.
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  const ObjectId x = cluster.new_object(p);
  const ObjectId y = cluster.new_object(p);
  cluster.add_root(p, x);
  cluster.persist(p);
  cluster.add_root(p, y);
  EXPECT_TRUE(cluster.collect(p).reclaimed.empty());
  const std::uint64_t tag = cluster.process(p).mutation_epoch();
  const std::uint64_t root_tag = cluster.process(p).root_epoch();

  cluster.kill(p);
  ASSERT_TRUE(cluster.restart(p));
  ASSERT_EQ(cluster.process(p).mutation_epoch(), tag);
  ASSERT_EQ(cluster.process(p).root_epoch(), root_tag);
  const LgcResult& after = cluster.collect(p);
  EXPECT_EQ(marks_reused(cluster, p), 0u);
  EXPECT_EQ(marks_remote(cluster, p), 0u);
  EXPECT_EQ(after.reclaimed, std::vector<ObjectId>{y});
}

TEST(MarkReuse, CountsSurviveARestart) {
  // metric_total adds what killed incarnations counted to the live ones.
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  const ProcessId q = cluster.add_process();
  cluster.add_root(p, cluster.new_object(p));
  cluster.persist(p);
  cluster.collect(p);
  cluster.collect(p);  // reused
  cluster.collect(q);
  ASSERT_EQ(cluster.metric_total("lgc.marks_reused"), 1u);

  cluster.kill(p);
  EXPECT_EQ(cluster.metric_total("lgc.collections"), 3u);
  EXPECT_EQ(cluster.metric_total("lgc.marks_reused"), 1u);
  ASSERT_TRUE(cluster.restart(p));
  cluster.collect(p);
  cluster.collect(p);  // reused again
  EXPECT_EQ(cluster.process(p).metrics().get("lgc.collections"), 2u);
  EXPECT_EQ(cluster.metric_total("lgc.collections"), 5u);
  EXPECT_EQ(cluster.metric_total("lgc.marks_reused"), 2u);
  EXPECT_EQ(cluster.metric_total("rm.objects_created"), 1u);
}

TEST(MarkReuse, BigHeapShapeRetracesOnlyTheRemoteClosure) {
  // perfbench's big_heap in small: rooted ballast chains beside acyclic
  // garbage trees spanning every process, collected by run_full_gc.  The
  // ADGC's scion and propagation-list edits leave the ballast's classes
  // standing, so after the first round no collection traces it again.
  constexpr std::size_t kProcesses = 4;
  constexpr std::size_t kBallast = 4096;
  constexpr std::size_t kChain = 64;
  ClusterConfig cfg;
  cfg.net.seed = 11;
  cfg.threads = 4;  // phase 1 on the worker pool (TSan leg of check.sh)
  cfg.record_capacity = std::size_t{1} << 16;
  Cluster cluster{cfg};
  for (std::size_t i = 0; i < kProcesses; ++i) cluster.add_process();
  std::vector<workload::Tree> trees;
  for (int t = 0; t < 2; ++t) {
    trees.push_back(workload::build_tree(
        cluster, {.fanout = 3, .depth = 5, .processes = kProcesses}));
  }
  for (const workload::Tree& tree : trees) {
    cluster.remove_root(tree.root_process, tree.root);
  }
  std::map<ProcessId, std::uint64_t> tree_replicas;
  for (ProcessId pid : cluster.process_ids()) {
    tree_replicas[pid] = cluster.process(pid).heap().size();
    ObjectId prev = kNoObject;
    for (std::size_t k = 0; k < kBallast; ++k) {
      const ObjectId obj = cluster.new_object(pid);
      if (k % kChain == 0) {
        cluster.add_root(pid, obj);
      } else {
        cluster.add_ref(pid, prev, obj);
      }
      prev = obj;
    }
  }
  cluster.run_until_quiescent();
  std::uint64_t garbage = 0;
  std::map<ProcessId, std::uint64_t> shortcuts_before;
  for (const auto& [pid, replicas] : tree_replicas) {
    garbage += replicas;
    shortcuts_before[pid] =
        marks_remote(cluster, pid) + marks_reused(cluster, pid);
  }
  const std::uint64_t live = cluster.total_objects() - garbage;
  const std::uint64_t remote_before = cluster.metric_total("lgc.marks_remote");
  const std::uint64_t first_seq = cluster.recorder()->appended();

  cluster.run_full_gc();

  // Oracle: nothing live was lost, every garbage replica is gone.
  const core::OracleReport report = core::Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(core::Oracle::fully_collected(cluster, report));
  EXPECT_EQ(cluster.total_objects(), live);
  // No object is left that a fresh mark finds unmarked.
  for (ProcessId pid : cluster.process_ids()) {
    LgcMark fresh = Lgc::mark(cluster.process(pid));
    Lgc::scan(cluster.process(pid), fresh);
    EXPECT_TRUE(fresh.unmarked.empty()) << to_string(pid);
  }

  // Every collection that did not trace the ballast — reused or
  // remote-only — traced at most its process's remote closure: each tree
  // replica there, once per remote family.
  ASSERT_EQ(cluster.recorder()->dropped(), 0u);
  const auto run = obs::FlightRecorder::decode(
      cluster.recorder()->encode(cluster.recorder_stamp()));
  ASSERT_TRUE(run.has_value());
  std::map<ProcessId, std::uint64_t> light;
  for (const obs::RecEvent& e : run->events) {
    if (e.seq < first_seq ||
        e.kind != static_cast<std::uint8_t>(obs::RecKind::kSweep)) {
      continue;
    }
    const ProcessId pid{e.pid};
    SCOPED_TRACE(testing::Message() << to_string(pid) << " sweep " << e.seq);
    ASSERT_LT(3 * tree_replicas[pid], kBallast);
    if (e.b < kBallast) {
      EXPECT_LE(e.b, 3 * tree_replicas[pid]);
      ++light[pid];
    }
  }
  EXPECT_GT(cluster.metric_total("lgc.marks_remote"), remote_before);
  for (ProcessId pid : cluster.process_ids()) {
    SCOPED_TRACE(to_string(pid));
    EXPECT_EQ(light[pid], marks_remote(cluster, pid) +
                              marks_reused(cluster, pid) -
                              shortcuts_before[pid]);
  }
}

}  // namespace
}  // namespace rgc::gc
