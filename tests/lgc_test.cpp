// Unit tests: the local collector — four trace families, Union Rule
// preservation, stub-set regeneration, sweep, finalization strategies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "gc/lgc/lgc.h"
#include "net/network.h"
#include "rm/process.h"

// Counts every global operator new in this binary, so a test can pin how
// many allocations one collection makes.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Not inlined: once inlined into a caller, GCC pairs the caller's
// `operator new` with this body's `free` and reports a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rgc::gc {
namespace {

struct LgcFixture : ::testing::Test {
  net::Network net;
  rm::Process p1{ProcessId{1}, net};
  rm::Process p2{ProcessId{2}, net};

  void SetUp() override {
    net.attach(ProcessId{1}, [this](const net::Envelope& env, net::Message&) {
      route(p1, env);
    });
    net.attach(ProcessId{2}, [this](const net::Envelope& env, net::Message&) {
      route(p2, env);
    });
  }

  static void route(rm::Process& p, const net::Envelope& env) {
    if (const auto* m = dynamic_cast<const rm::PropagateMsg*>(env.msg)) {
      p.on_propagate(env, *m);
    } else if (const auto* m = dynamic_cast<const rm::InvokeMsg*>(env.msg)) {
      p.on_invoke(env, *m);
    }
  }

  void quiesce() {
    while (!net.idle()) net.step();
  }
};

TEST_F(LgcFixture, RootedObjectsSurvive) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.add_root(ObjectId{1});
  const auto r = Lgc::collect(p1);
  EXPECT_TRUE(r.reclaimed.empty());
  EXPECT_EQ(r.object_reach.at(ObjectId{1}) & kReachRoot, kReachRoot);
  EXPECT_EQ(r.object_reach.at(ObjectId{2}) & kReachRoot, kReachRoot);
}

TEST_F(LgcFixture, UnreachableObjectsAreSwept) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  const auto r = Lgc::collect(p1);
  EXPECT_EQ(r.reclaimed.size(), 2u);
  EXPECT_EQ(p1.heap().size(), 0u);
}

TEST_F(LgcFixture, LocalCycleIsCollected) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.add_ref(ObjectId{2}, ObjectId{1});
  const auto r = Lgc::collect(p1);
  EXPECT_EQ(r.reclaimed.size(), 2u);
}

TEST_F(LgcFixture, ScionAnchoredObjectSurvives) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});  // exports scion for o2
  quiesce();
  // o1 keeps both alive locally; remove the chain so only the scion holds o2.
  p1.remove_ref(ObjectId{1}, ObjectId{2});
  const auto r = Lgc::collect(p1);
  EXPECT_TRUE(p1.heap().contains(ObjectId{2}));
  EXPECT_EQ(r.object_reach.at(ObjectId{2}) & kReachScion, kReachScion);
}

TEST_F(LgcFixture, TransientInvocationRootsCountAsRoots) {
  p1.create_object(ObjectId{1});
  p1.pin_transient_root(ObjectId{1}, 2);
  auto r = Lgc::collect(p1);
  EXPECT_TRUE(p1.heap().contains(ObjectId{1}));
  p1.tick();
  p1.tick();
  r = Lgc::collect(p1);
  EXPECT_FALSE(p1.heap().contains(ObjectId{1}));
}

TEST_F(LgcFixture, UnionRulePreservesOutPropagatedReplica) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  // No root, no scion: only the outProp entry anchors the parent replica.
  const auto r = Lgc::collect(p1);
  EXPECT_TRUE(p1.heap().contains(ObjectId{1}));
  EXPECT_EQ(r.object_reach.at(ObjectId{1}) & kReachOutProp, kReachOutProp);
}

TEST_F(LgcFixture, UnionRulePreservesInPropagatedReplica) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  const auto r = Lgc::collect(p2);
  EXPECT_TRUE(p2.heap().contains(ObjectId{1}));
  EXPECT_EQ(r.object_reach.at(ObjectId{1}) & kReachInProp, kReachInProp);
}

TEST_F(LgcFixture, UnionRuleOffLosesThePropagatedReplica) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  LgcConfig cfg;
  cfg.union_rule = false;  // the classical, replication-blind collector
  Lgc::collect(p1, cfg);
  EXPECT_FALSE(p1.heap().contains(ObjectId{1}))
      << "without the Union Rule the parent replica is (unsafely) swept";
}

TEST_F(LgcFixture, StubSetRegenerationKeepsLiveStubsOnly) {
  // Build two stubs at p2 by importing two references, then cut one holder.
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.create_object(ObjectId{3});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{3});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  ASSERT_EQ(p2.stubs().size(), 2u);
  p2.add_root(ObjectId{1});
  p2.remove_ref(ObjectId{1}, ObjectId{3});

  const auto r = Lgc::collect(p2);
  EXPECT_TRUE(r.live_stubs.contains(rm::StubKey{ObjectId{2}, ProcessId{1}}));
  EXPECT_FALSE(r.live_stubs.contains(rm::StubKey{ObjectId{3}, ProcessId{1}}));
  EXPECT_FALSE(p2.stubs().contains(rm::StubKey{ObjectId{3}, ProcessId{1}}));
}

TEST_F(LgcFixture, RootHeldRemoteReferenceKeepsStub) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  // p2 roots the remote object directly (a register holding a remote ref)
  // and drops the replica that imported it.
  p2.add_root(ObjectId{2});
  const auto r = Lgc::collect(p2);
  EXPECT_TRUE(r.live_stubs.contains(rm::StubKey{ObjectId{2}, ProcessId{1}}));
  EXPECT_EQ(r.stub_reach.at(rm::StubKey{ObjectId{2}, ProcessId{1}}) & kReachRoot,
            kReachRoot);
}

TEST_F(LgcFixture, ReachabilityClassesAreDisjointWhenExpected) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  p1.add_root(ObjectId{1});
  const auto r = Lgc::collect(p1);
  const auto mask = r.object_reach.at(ObjectId{1});
  EXPECT_TRUE(mask & kReachRoot);
  EXPECT_TRUE(mask & kReachOutProp);
  EXPECT_FALSE(mask & kReachScion);
  EXPECT_FALSE(mask & kReachInProp);
}

// ---- Finalization strategies (the Figure 6/7 machinery) -----------------

TEST_F(LgcFixture, FinalizerNoneCollectsFinalizableObjects) {
  Finalizer fin{FinalizeStrategy::kNone};
  p1.create_object(ObjectId{1}).finalizable = true;
  LgcConfig cfg;
  cfg.finalizer = &fin;
  const auto r = Lgc::collect(p1, cfg);
  EXPECT_EQ(r.reclaimed.size(), 1u);
  EXPECT_EQ(r.resurrected, 0u);
}

TEST_F(LgcFixture, ReRegisterResurrectsEveryCollection) {
  Finalizer fin{FinalizeStrategy::kReRegister};
  p1.create_object(ObjectId{1}).finalizable = true;
  LgcConfig cfg;
  cfg.finalizer = &fin;
  for (int i = 0; i < 5; ++i) {
    const auto r = Lgc::collect(p1, cfg);
    EXPECT_EQ(r.resurrected, 1u) << "iteration " << i;
    EXPECT_TRUE(p1.heap().contains(ObjectId{1}));
  }
  EXPECT_EQ(fin.finalized_count(), 5u);
}

TEST_F(LgcFixture, ReconstructionFreshResurrectsWithSameEdges) {
  Finalizer fin{FinalizeStrategy::kReconstructionFresh};
  p1.create_object(ObjectId{1}).finalizable = true;
  p1.create_object(ObjectId{2}).finalizable = true;
  p1.add_ref(ObjectId{1}, ObjectId{2});
  LgcConfig cfg;
  cfg.finalizer = &fin;
  const auto r = Lgc::collect(p1, cfg);
  EXPECT_EQ(r.resurrected, 2u);
  ASSERT_TRUE(p1.heap().contains(ObjectId{1}));
  EXPECT_EQ(p1.heap().find(ObjectId{1})->ref_targets(),
            (std::vector<ObjectId>{ObjectId{2}}));
  // Fresh reconstruction re-arms the finalizer (Java's run-once semantics
  // are restored by building a new object).
  EXPECT_TRUE(p1.heap().find(ObjectId{1})->finalizable);
}

TEST_F(LgcFixture, ReconstructionInPlaceDoesNotReArmAutomatically) {
  Finalizer fin{FinalizeStrategy::kReconstructionInPlace};
  p1.create_object(ObjectId{1}).finalizable = true;
  LgcConfig cfg;
  cfg.finalizer = &fin;
  auto r = Lgc::collect(p1, cfg);
  EXPECT_EQ(r.resurrected, 1u);
  // In-place reconstruction without ReRegister: finalizable stays cleared,
  // so the next collection sweeps the object.
  r = Lgc::collect(p1, cfg);
  EXPECT_EQ(r.reclaimed.size(), 1u);
}

TEST_F(LgcFixture, RootedFinalizableObjectsAreNeverFinalized) {
  Finalizer fin{FinalizeStrategy::kReRegister};
  p1.create_object(ObjectId{1}).finalizable = true;
  p1.add_root(ObjectId{1});
  LgcConfig cfg;
  cfg.finalizer = &fin;
  Lgc::collect(p1, cfg);
  EXPECT_EQ(fin.finalized_count(), 0u);
}

TEST_F(LgcFixture, TracedCountGrowsWithHeap) {
  for (int i = 0; i < 50; ++i) {
    const ObjectId id{static_cast<std::uint64_t>(i)};
    p1.create_object(id);
    p1.add_root(id);
  }
  const auto r = Lgc::collect(p1);
  EXPECT_GE(r.traced, 50u);
}

/// Allocations made by one steady-state Lgc::collect over an `n`-object,
/// fully live local mesh: object i references i+1, i+7, i+31 and i+107
/// (mod n), one root at 0.
std::uint64_t allocations_per_collection(std::uint64_t n) {
  static constexpr std::uint64_t kStrides[] = {1, 7, 31, 107};
  net::Network net;
  rm::Process proc{ProcessId{0}, net};
  net.attach(ProcessId{0}, [](const net::Envelope&, net::Message&) {});
  for (std::uint64_t i = 0; i < n; ++i) proc.create_object(ObjectId{i});
  for (std::uint64_t i = 0; i < n; ++i) {
    rm::Object* obj = proc.heap().find(ObjectId{i});
    for (std::uint64_t s : kStrides) {
      obj->refs.push_back(rm::Ref{ObjectId{(i + s) % n}, kNoProcess});
    }
  }
  proc.add_root(ObjectId{0});

  // Warm-up: the first collections size the reusable mark scratch.
  for (int i = 0; i < 2; ++i) Lgc::collect(proc);
  const std::uint64_t before = g_allocs.load();
  const LgcResult r = Lgc::collect(proc);
  const std::uint64_t allocs = g_allocs.load() - before;
  EXPECT_EQ(r.traced, n);
  return allocs;
}

TEST(LgcAllocations, SteadyStateTracingDoesNotAllocatePerObject) {
  const std::uint64_t small = allocations_per_collection(1000);
  const std::uint64_t large = allocations_per_collection(100000);
  EXPECT_EQ(small, large)
      << "a steady-state collection must allocate a fixed number of times, "
         "not once per traced object";
}

}  // namespace
}  // namespace rgc::gc
