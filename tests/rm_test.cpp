// Unit tests: the RM substrate — heap, mutator operations, propagation
// (clean-before-send / clean-before-deliver), invocation counters.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/network.h"
#include "rm/process.h"
#include "util/ids.h"

namespace rgc::rm {
namespace {

struct RmFixture : ::testing::Test {
  net::Network net;
  Process p1{ProcessId{1}, net};
  Process p2{ProcessId{2}, net};

  void SetUp() override {
    net.attach(ProcessId{1}, [this](const net::Envelope& env, net::Message&) {
      route(p1, env);
    });
    net.attach(ProcessId{2}, [this](const net::Envelope& env, net::Message&) {
      route(p2, env);
    });
  }

  static void route(Process& p, const net::Envelope& env) {
    if (const auto* m = dynamic_cast<const PropagateMsg*>(env.msg)) {
      p.on_propagate(env, *m);
    } else if (const auto* m = dynamic_cast<const InvokeMsg*>(env.msg)) {
      p.on_invoke(env, *m);
    } else {
      FAIL() << "unexpected message kind " << env.msg->kind();
    }
  }

  void quiesce() {
    while (!net.idle()) {
      net.step();
      p1.tick();
      p2.tick();
    }
  }
};

TEST_F(RmFixture, HeapPutFindErase) {
  Heap heap;
  heap.put(ObjectId{1}, {Ref{ObjectId{2}, kNoProcess}});
  EXPECT_TRUE(heap.contains(ObjectId{1}));
  ASSERT_NE(heap.find(ObjectId{1}), nullptr);
  EXPECT_EQ(heap.find(ObjectId{1})->refs.size(), 1u);
  EXPECT_TRUE(heap.erase(ObjectId{1}));
  EXPECT_FALSE(heap.erase(ObjectId{1}));
}

TEST_F(RmFixture, HeapPutOverwritesReplicaContent) {
  Heap heap;
  heap.put(ObjectId{1}, {Ref{ObjectId{2}, kNoProcess}, Ref{ObjectId{3}, kNoProcess}});
  heap.put(ObjectId{1}, {Ref{ObjectId{4}, kNoProcess}});
  EXPECT_EQ(heap.find(ObjectId{1})->ref_targets(),
            (std::vector<ObjectId>{ObjectId{4}}));
}

TEST_F(RmFixture, ObjectRefDeduplication) {
  Object o;
  EXPECT_TRUE(o.add_ref(Ref{ObjectId{5}, kNoProcess}));
  EXPECT_FALSE(o.add_ref(Ref{ObjectId{5}, ProcessId{3}}));  // same target, any binding
  EXPECT_TRUE(o.remove_ref(ObjectId{5}));
  EXPECT_FALSE(o.remove_ref(ObjectId{5}));
}

TEST_F(RmFixture, CreateObjectRejectsDuplicates) {
  p1.create_object(ObjectId{1});
  EXPECT_THROW(p1.create_object(ObjectId{1}), std::logic_error);
}

TEST_F(RmFixture, AddRefRequiresLocalSource) {
  p1.create_object(ObjectId{1});
  EXPECT_THROW(p1.add_ref(ObjectId{99}, ObjectId{1}), std::logic_error);
}

TEST_F(RmFixture, AddRefRequiresResolvableTarget) {
  p1.create_object(ObjectId{1});
  // o2 exists nowhere near p1: no replica, no stub.
  EXPECT_THROW(p1.add_ref(ObjectId{1}, ObjectId{2}), std::logic_error);
}

TEST_F(RmFixture, AddRootRequiresResolvableTarget) {
  EXPECT_THROW(p1.add_root(ObjectId{7}), std::logic_error);
  p1.create_object(ObjectId{7});
  EXPECT_NO_THROW(p1.add_root(ObjectId{7}));
}

TEST_F(RmFixture, PropagateCreatesReplicaAndPropEntries) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();

  EXPECT_TRUE(p2.has_replica(ObjectId{1}));
  const OutProp* op = p1.find_out_prop(ObjectId{1}, ProcessId{2});
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->uc, 1u);
  const InProp* ip = p2.find_in_prop(ObjectId{1}, ProcessId{1});
  ASSERT_NE(ip, nullptr);
  EXPECT_EQ(ip->uc, 1u);
  EXPECT_TRUE(p1.is_replicated(ObjectId{1}));
  EXPECT_TRUE(p2.is_replicated(ObjectId{1}));
}

TEST_F(RmFixture, RepropagationBumpsBothUpdateCounters) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  EXPECT_EQ(p1.find_out_prop(ObjectId{1}, ProcessId{2})->uc, 2u);
  EXPECT_EQ(p2.find_in_prop(ObjectId{1}, ProcessId{1})->uc, 2u);
}

TEST_F(RmFixture, PropagateExportsEnclosedReferencesAsScions) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});

  // Clean before send: the scion exists at the sender even before delivery.
  const ScionKey key{ProcessId{2}, ObjectId{2}};
  ASSERT_TRUE(p1.scions().contains(key));
  EXPECT_EQ(p1.scions().at(key).src_objects,
            (std::vector<ObjectId>{ObjectId{1}}));
  EXPECT_FALSE(p2.stubs().contains(StubKey{ObjectId{2}, ProcessId{1}}));

  quiesce();
  // Clean before deliver: the importing side created the stub.
  EXPECT_TRUE(p2.stubs().contains(StubKey{ObjectId{2}, ProcessId{1}}));
  EXPECT_TRUE(p2.stub_peers().contains(ProcessId{1}));
}

TEST_F(RmFixture, ImportBindsLocallyButStillCreatesTheStub) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  // p2 already holds a replica of o2.
  p1.propagate(ObjectId{2}, ProcessId{2});
  quiesce();
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  // The binding resolves to the local replica...
  const rm::Object* a = p2.heap().find(ObjectId{1});
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->refs.size(), 1u);
  EXPECT_TRUE(a->refs[0].is_local());
  // ...but the stub exists anyway: it is the handle that retires the
  // sender's unconditionally created scion at the next NewSetStubs round.
  EXPECT_TRUE(p2.stubs().contains(StubKey{ObjectId{2}, ProcessId{1}}));
  ASSERT_TRUE(p1.scions().contains(ScionKey{ProcessId{2}, ObjectId{2}}));
}

TEST_F(RmFixture, PropagateOfUnknownObjectThrows) {
  EXPECT_THROW(p1.propagate(ObjectId{1}, ProcessId{2}), std::logic_error);
}

TEST_F(RmFixture, PropagateToSelfThrows) {
  p1.create_object(ObjectId{1});
  EXPECT_THROW(p1.propagate(ObjectId{1}, ProcessId{1}), std::logic_error);
}

TEST_F(RmFixture, CopyingImportedReferenceLocally) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  // p2's mutator copies the imported reference into a fresh local object —
  // legal, because the replica of o1 already holds it.
  p2.create_object(ObjectId{3});
  EXPECT_NO_THROW(p2.add_ref(ObjectId{3}, ObjectId{2}));
}

TEST_F(RmFixture, InvocationBumpsBothInvocationCounters) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();

  p2.invoke(ObjectId{2});
  quiesce();
  EXPECT_EQ(p2.stubs().at(StubKey{ObjectId{2}, ProcessId{1}}).ic, 1u);
  EXPECT_EQ(p1.scions().at(ScionKey{ProcessId{2}, ObjectId{2}}).ic, 1u);

  p2.invoke(ObjectId{2});
  quiesce();
  EXPECT_EQ(p2.stubs().at(StubKey{ObjectId{2}, ProcessId{1}}).ic, 2u);
  EXPECT_EQ(p1.scions().at(ScionKey{ProcessId{2}, ObjectId{2}}).ic, 2u);
}

TEST_F(RmFixture, InvokeWithoutStubThrows) {
  EXPECT_THROW(p1.invoke(ObjectId{9}), std::logic_error);
}

TEST_F(RmFixture, InvocationPinsTransientRootsAndTheyExpire) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();

  p2.invoke(ObjectId{2}, /*root_steps=*/2);
  EXPECT_TRUE(p2.transient_roots().contains(ObjectId{2}));
  quiesce();  // delivers the invoke; callee pins too
  EXPECT_TRUE(p1.transient_roots().contains(ObjectId{2}));
  // Ticks expire the pins.
  for (int i = 0; i < 3; ++i) {
    p1.tick();
    p2.tick();
  }
  EXPECT_FALSE(p1.transient_roots().contains(ObjectId{2}));
  EXPECT_FALSE(p2.transient_roots().contains(ObjectId{2}));
}

TEST_F(RmFixture, DeliveredPropSeqTracksHorizon) {
  p1.create_object(ObjectId{1});
  EXPECT_EQ(p2.delivered_prop_seq(ProcessId{1}), 0u);
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  const auto h1 = p2.delivered_prop_seq(ProcessId{1});
  EXPECT_GT(h1, 0u);
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  EXPECT_GT(p2.delivered_prop_seq(ProcessId{1}), h1);
}

TEST_F(RmFixture, StubsForFindsAllChains) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  const auto stubs = p2.stubs_for(ObjectId{2});
  ASSERT_EQ(stubs.size(), 1u);
  EXPECT_EQ(stubs[0].target_process, ProcessId{1});
  EXPECT_TRUE(p2.knows(ObjectId{2}));
  EXPECT_FALSE(p2.knows(ObjectId{99}));
}

TEST_F(RmFixture, PropParentsAndChildren) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  EXPECT_EQ(p1.prop_children(ObjectId{1}),
            (std::vector<ProcessId>{ProcessId{2}}));
  EXPECT_TRUE(p1.prop_parents(ObjectId{1}).empty());
  EXPECT_EQ(p2.prop_parents(ObjectId{1}),
            (std::vector<ProcessId>{ProcessId{1}}));
  EXPECT_TRUE(p2.prop_children(ObjectId{1}).empty());
}

TEST_F(RmFixture, UpdateRefreshesReplicaContent) {
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  EXPECT_TRUE(p2.heap().find(ObjectId{1})->refs.empty());
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});  // update carries the new ref
  quiesce();
  EXPECT_EQ(p2.heap().find(ObjectId{1})->ref_targets(),
            (std::vector<ObjectId>{ObjectId{2}}));
  EXPECT_TRUE(p2.stubs().contains(StubKey{ObjectId{2}, ProcessId{1}}));
}

TEST_F(RmFixture, RepropagationClearsStaleUnreachableBits) {
  p1.create_object(ObjectId{1});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();
  p1.find_out_prop(ObjectId{1}, ProcessId{2})->rec_umess = true;
  p2.find_in_prop(ObjectId{1}, ProcessId{1})->sent_umess = true;
  p1.propagate(ObjectId{1}, ProcessId{2});
  EXPECT_FALSE(p1.find_out_prop(ObjectId{1}, ProcessId{2})->rec_umess);
  quiesce();
  EXPECT_FALSE(p2.find_in_prop(ObjectId{1}, ProcessId{1})->sent_umess);
}

TEST_F(RmFixture, ChainedInvocationRoutesThroughIntermediaries) {
  // Build a stub–scion chain P2 -> P1 for o2 (which lives on P1 only):
  // o1 (holding o2) is propagated P1 -> P2; P2's imported reference binds
  // through P1.  An invocation from P2 reaches the object directly here —
  // now extend the chain: propagate o1 onward would chain further; for a
  // two-hop test use a third process via the cluster-level tests.  Here we
  // verify the single forward step: delete o2's replica at an intermediary
  // cannot happen (o2 never lived at P2), and the invocation pins both
  // ends while every traversed link's IC moves.
  p1.create_object(ObjectId{1});
  p1.create_object(ObjectId{2});
  p1.add_ref(ObjectId{1}, ObjectId{2});
  p1.propagate(ObjectId{1}, ProcessId{2});
  quiesce();

  p2.invoke(ObjectId{2}, 3);
  quiesce();
  EXPECT_TRUE(p1.transient_roots().contains(ObjectId{2}));
  EXPECT_TRUE(p2.transient_roots().contains(ObjectId{2}));
  EXPECT_EQ(p1.metrics().get("rm.invocations_forwarded"), 0u)
      << "anchor is local at the callee: no chain hop";
}

// ---- Arena heap semantics (the dense-slot/SoA rewrite) ---------------------

TEST_F(RmFixture, ArenaIterationIsIdOrderedWithMapSemantics) {
  // Inserts land in scrambled order; for_each must visit in ascending id
  // order exactly once each — the same observable sequence the old
  // std::map heap produced, which every determinism guarantee leans on.
  Heap heap;
  const std::uint64_t ids[] = {7, 2, 9, 1, 100, 42, 3};
  for (const std::uint64_t id : ids) heap.put(ObjectId{id});
  std::vector<std::uint64_t> seen;
  heap.for_each([&](ObjectId id, std::uint32_t slot, Object& obj) {
    EXPECT_EQ(obj.id, id);
    EXPECT_EQ(heap.slot_of(id), slot);
    seen.push_back(raw(id));
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 7, 9, 42, 100}));

  // Map semantics under churn: erase + re-put mid-sequence, new ids
  // interleave into id order on the next pass, erased ones vanish.
  EXPECT_TRUE(heap.erase(ObjectId{9}));
  EXPECT_TRUE(heap.erase(ObjectId{1}));
  heap.put(ObjectId{5});
  heap.put(ObjectId{9});  // re-created after erase
  seen.clear();
  heap.for_each([&](ObjectId id, std::uint32_t, Object&) {
    seen.push_back(raw(id));
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 3, 5, 7, 9, 42, 100}));

  // The sweep contract: the body may erase the visited object and put new
  // ones; puts are not visited this pass, erasures skip the rest of it.
  seen.clear();
  heap.for_each([&](ObjectId id, std::uint32_t, Object&) {
    seen.push_back(raw(id));
    if (raw(id) == 3) {
      heap.erase(ObjectId{42});
      heap.put(ObjectId{4});
    }
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 3, 5, 7, 9, 100}));
  EXPECT_TRUE(heap.contains(ObjectId{4}));
}

TEST_F(RmFixture, ArenaFreeListReuseAndEpochValidatedMarks) {
  Heap heap;
  for (std::uint64_t id = 1; id <= 8; ++id) heap.put(ObjectId{id});
  const std::size_t extent = heap.slab_size();

  // Mark epoch 1: objects 1..4 get kReachLocal-style bit 0x1.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const std::uint32_t slot = heap.slot_of(ObjectId{id});
    ASSERT_NE(slot, Heap::kNoSlot);
    EXPECT_TRUE(heap.mark(slot, 1, 0x1));
    EXPECT_FALSE(heap.mark(slot, 1, 0x1)) << "second visit must dedupe";
    EXPECT_EQ(heap.marks(slot, 1), 0x1);
  }

  // Sweep the unmarked half; their slots join the free list.
  for (std::uint64_t id = 5; id <= 8; ++id) {
    EXPECT_TRUE(heap.erase(ObjectId{id}));
  }
  EXPECT_EQ(heap.free_slots(), 4u);
  EXPECT_EQ(heap.slab_size(), extent) << "erase must not shrink the slab";

  // Reuse: new objects take free-listed slots without growing the slab,
  // and a reused slot carries no mark state from its previous occupant.
  std::set<std::uint32_t> reused;
  for (std::uint64_t id = 101; id <= 104; ++id) {
    heap.put(ObjectId{id});
    reused.insert(heap.slot_of(ObjectId{id}));
  }
  EXPECT_EQ(heap.free_slots(), 0u);
  EXPECT_EQ(heap.slab_size(), extent) << "reuse must not grow the slab";
  for (const std::uint32_t slot : reused) {
    EXPECT_EQ(heap.marks(slot, 1), 0)
        << "reused slot leaked its previous occupant's epoch-1 marks";
  }

  // Epoch validation: epoch-2 marks shadow epoch 1 without any reset pass,
  // and epoch-1 masks read as zero afterwards.
  const std::uint32_t s1 = heap.slot_of(ObjectId{1});
  EXPECT_TRUE(heap.mark(s1, 2, 0x2));
  EXPECT_EQ(heap.marks(s1, 2), 0x2);
  EXPECT_EQ(heap.marks(s1, 1), 0) << "stale epoch must read as unmarked";
}

}  // namespace
}  // namespace rgc::rm
