// Differential test of the ADGC digest: Adgc::after_collection's merge walk
// over the object-sorted prop lists against the original set-and-rescan
// loop (adgc_digest_reference.{h,cpp}) over randomized prop lists, reach
// classes, Unreachable/Reclaim flags, multi-parent objects and stub sets.
// Both must send the same messages in the same order and leave the same
// flags, out-props, stub peers and mutation epoch behind.
//
// The PropOrder suite pins the invariant the merge walk relies on: every
// operation that adds, drops or restores prop entries leaves both lists
// sorted by object, with insertion order kept inside one object.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adgc_digest_reference.h"
#include "gc/adgc/adgc.h"
#include "gc/cycle/detector.h"
#include "gc/lgc/lgc.h"
#include "net/network.h"
#include "rm/image.h"
#include "rm/process.h"
#include "util/rng.h"

namespace rgc::gc {
namespace {

constexpr ProcessId kSelf{1};
constexpr std::uint64_t kObjects = 24;
constexpr std::uint64_t kPeers = 6;  // P2..P7; P7 never holds a stub peer

/// Every send, rendered with its full payload.
struct SendLog : net::Network::Observer {
  std::vector<std::string> sends;

  void on_send(const net::Envelope& env) override {
    // Built by appending: GCC's -Wrestrict misfires on "lit" + std::string
    // in optimized builds.
    std::string line = to_string(env.src);
    line += "->";
    line += to_string(env.dst);
    line += ' ';
    line += env.msg->kind();
    const auto field = [&line](const char* name, const std::string& value) {
      line += ' ';
      line += name;
      line += value;
    };
    if (const auto* m = dynamic_cast<const NewSetStubsMsg*>(env.msg)) {
      for (ObjectId a : m->stub_anchors) field("", to_string(a));
      field("horizon=", std::to_string(m->horizon));
      field("epoch=", std::to_string(m->epoch));
      if (m->final_set) field("final", "");
    } else if (const auto* u = dynamic_cast<const UnreachableMsg*>(env.msg)) {
      field("", to_string(u->object));
      field("uc=", std::to_string(u->uc));
    } else if (const auto* r = dynamic_cast<const ReclaimMsg*>(env.msg)) {
      field("", to_string(r->object));
    }
    sends.push_back(std::move(line));
  }
};

/// One process with its own network and send log.
struct Side {
  net::Network net;
  SendLog log;
  rm::Process proc{kSelf, net};

  Side() { net.add_observer(&log); }
};

ProcessId random_peer(util::Rng& rng) {
  return ProcessId{static_cast<std::uint32_t>(2 + rng.below(kPeers))};
}

ObjectId random_object(util::Rng& rng) { return ObjectId{1 + rng.below(kObjects)}; }

/// Adds up to `n` random links (each a fresh (object, peer) pair) in
/// random order, so objects get several parents and children whose
/// within-object order is the insertion order.
template <typename Entry>
void add_links(std::vector<Entry>& list, util::Rng& rng, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId obj = random_object(rng);
    const ProcessId peer = random_peer(rng);
    if (std::ranges::any_of(rm::prop_range(list, obj),
                            [&](const Entry& e) { return e.process == peer; })) {
      continue;
    }
    Entry e;
    e.object = obj;
    e.process = peer;
    e.uc = 1 + rng.below(4);
    rm::insert_prop(list, e);
  }
}

/// One round's changes, applied identically to both sides: new links,
/// flipped Unreachable flags and new stub peers.
void mutate(rm::Process& proc, util::Rng rng) {
  add_links(proc.in_props(), rng, rng.below(10));
  add_links(proc.out_props(), rng, rng.below(10));
  for (rm::InProp& e : proc.in_props()) {
    if (rng.chance(0.3)) e.sent_umess = !e.sent_umess;
  }
  for (rm::OutProp& e : proc.out_props()) {
    if (rng.chance(0.4)) e.rec_umess = rng.chance(0.8);
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    proc.stub_peers().insert(random_peer(rng));
  }
}

/// A collection's classification: random reach classes for a random
/// subset of the objects, and a random stub set.
LgcResult random_result(util::Rng& rng) {
  LgcResult result;
  for (std::uint64_t id = 1; id <= kObjects + 2; ++id) {
    if (rng.chance(0.4)) continue;
    result.object_reach.append(ObjectId{id},
                               static_cast<std::uint8_t>(rng.below(16)));
  }
  for (std::uint64_t id = 1; id <= kObjects; ++id) {
    for (std::uint32_t p = 2; p < 2 + kPeers; ++p) {
      if (rng.chance(0.08)) {
        result.stub_reach.append(rm::StubKey{ObjectId{id}, ProcessId{p}},
                                 kReachRoot);
      }
    }
  }
  return result;
}

std::uint64_t sent_of(const std::vector<std::string>& sends, const char* kind) {
  return static_cast<std::uint64_t>(std::ranges::count_if(
      sends, [&](const std::string& s) { return s.find(kind) != s.npos; }));
}

TEST(AdgcDigestDiff, MergeWalkMatchesReference) {
  std::uint64_t unreachable = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t newsetstubs = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng{seed};
    Side lib;
    Side ref;
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << round);
      const util::Rng round_rng = rng.fork();
      mutate(lib.proc, round_rng);
      mutate(ref.proc, round_rng);
      ASSERT_EQ(lib.proc.in_props(), ref.proc.in_props());
      ASSERT_EQ(lib.proc.out_props(), ref.proc.out_props());
      const LgcResult result = random_result(rng);

      const std::uint64_t lib_epoch = lib.proc.mutation_epoch();
      const std::uint64_t ref_epoch = ref.proc.mutation_epoch();
      lib.log.sends.clear();
      ref.log.sends.clear();
      Adgc::after_collection(lib.proc, result);
      after_collection_reference(ref.proc, result);

      EXPECT_EQ(lib.log.sends, ref.log.sends);
      EXPECT_EQ(lib.proc.in_props(), ref.proc.in_props());
      EXPECT_EQ(lib.proc.out_props(), ref.proc.out_props());
      EXPECT_EQ(lib.proc.stub_peers(), ref.proc.stub_peers());
      EXPECT_EQ(lib.proc.mutation_epoch() - lib_epoch,
                ref.proc.mutation_epoch() - ref_epoch);
      EXPECT_TRUE(std::ranges::is_sorted(lib.proc.out_props(),
                                         rm::PropObjectLess{}));
      unreachable += sent_of(ref.log.sends, "Unreachable");
      reclaims += sent_of(ref.log.sends, "Reclaim");
      newsetstubs += sent_of(ref.log.sends, "NewSetStubs");
    }
    EXPECT_EQ(lib.proc.counters().unreachable_sent.value(),
              ref.proc.counters().unreachable_sent.value());
    EXPECT_EQ(lib.proc.counters().reclaim_sent.value(),
              ref.proc.counters().reclaim_sent.value());
    EXPECT_EQ(lib.proc.counters().newsetstubs_sent.value(),
              ref.proc.counters().newsetstubs_sent.value());
  }
  // The randomized states exercise every branch of the digest.
  EXPECT_GT(unreachable, 1000u);
  EXPECT_GT(reclaims, 100u);
  EXPECT_GT(newsetstubs, 1000u);
}

// ---- PropOrder: the sorted-list invariant ----------------------------------

using Link = std::pair<ObjectId, ProcessId>;

template <typename Entry>
std::vector<Link> links(const std::vector<Entry>& list) {
  std::vector<Link> out;
  for (const Entry& e : list) out.emplace_back(e.object, e.process);
  return out;
}

constexpr ProcessId P1{1};
constexpr ProcessId P2{2};
constexpr ProcessId P3{3};
constexpr ProcessId P4{4};
constexpr ObjectId O1{1};
constexpr ObjectId O2{2};
constexpr ObjectId O3{3};

/// Four processes; P1 owns objects 1..3 and propagates them so that every
/// list receives its entries out of object order:
///   P1: 3->P3, 3->P2, 1->P2, 2->P3;  P2: 3->P4;  P1: 3->P4, 1->P4, 3->P3.
struct PropOrder : ::testing::Test {
  net::Network net;
  std::vector<std::unique_ptr<rm::Process>> procs;

  rm::Process& p(ProcessId pid) { return *procs[raw(pid) - 1]; }

  void SetUp() override {
    for (std::uint32_t i = 1; i <= 4; ++i) {
      procs.push_back(std::make_unique<rm::Process>(ProcessId{i}, net));
      rm::Process* proc = procs.back().get();
      net.attach(ProcessId{i}, [proc](const net::Envelope& env, net::Message&) {
        if (const auto* m = dynamic_cast<const rm::PropagateMsg*>(env.msg)) {
          proc->on_propagate(env, *m);
        }
      });
    }
    for (ObjectId o : {O1, O2, O3}) p(P1).create_object(o);
    p(P1).propagate(O3, P3);
    p(P1).propagate(O3, P2);
    p(P1).propagate(O1, P2);
    p(P1).propagate(O2, P3);
    quiesce();
    p(P2).propagate(O3, P4);
    quiesce();
    p(P1).propagate(O3, P4);
    p(P1).propagate(O1, P4);
    p(P1).propagate(O3, P3);  // an existing link keeps its place
    quiesce();
  }

  void TearDown() override {
    for (const auto& proc : procs) {
      SCOPED_TRACE(to_string(proc->id()));
      EXPECT_TRUE(std::ranges::is_sorted(proc->in_props(), rm::PropObjectLess{}));
      EXPECT_TRUE(std::ranges::is_sorted(proc->out_props(), rm::PropObjectLess{}));
    }
  }

  void quiesce() {
    while (!net.idle()) net.step();
  }

  static net::Envelope from(ProcessId src, ProcessId dst, const net::Message& m) {
    return net::Envelope{src, dst, 1, 0, &m};
  }
};

TEST_F(PropOrder, PropagateAndDeliveryInsertInObjectOrder) {
  ASSERT_EQ(links(p(P1).out_props()),
            (std::vector<Link>{{O1, P2}, {O1, P4}, {O2, P3}, {O3, P3}, {O3, P2},
                               {O3, P4}}));
  EXPECT_EQ(links(p(P2).in_props()), (std::vector<Link>{{O1, P1}, {O3, P1}}));
  EXPECT_EQ(links(p(P2).out_props()), (std::vector<Link>{{O3, P4}}));
  EXPECT_EQ(links(p(P3).in_props()), (std::vector<Link>{{O2, P1}, {O3, P1}}));
  EXPECT_EQ(links(p(P4).in_props()),
            (std::vector<Link>{{O1, P1}, {O3, P2}, {O3, P1}}));
  ASSERT_NE(p(P1).find_out_prop(O3, P2), nullptr);
  ASSERT_NE(p(P1).find_out_prop(O3, P3), nullptr);
  EXPECT_EQ(p(P1).find_out_prop(O3, P2)->uc, 1u);
  EXPECT_EQ(p(P1).find_out_prop(O3, P3)->uc, 2u);
  EXPECT_EQ(p(P1).prop_children(O3), (std::vector<ProcessId>{P3, P2, P4}));
  EXPECT_EQ(p(P4).prop_parents(O3), (std::vector<ProcessId>{P2, P1}));
  EXPECT_TRUE(p(P4).is_replicated(O1));
  EXPECT_FALSE(p(P4).is_replicated(O2));
}

TEST_F(PropOrder, CutAndPropCutKeepOrder) {
  ASSERT_NE(p(P4).find_in_prop(O3, P2), nullptr);
  ASSERT_NE(p(P1).find_out_prop(O3, P3), nullptr);
  CycleDetector at_p4{p(P4)};
  CutMsg cut;
  cut.candidate = O3;
  cut.prop_cuts = {{P2, p(P4).find_in_prop(O3, P2)->uc}};
  at_p4.on_cut(from(P1, P4, cut), cut);
  EXPECT_EQ(links(p(P4).in_props()), (std::vector<Link>{{O1, P1}, {O3, P1}}));

  CycleDetector at_p1{p(P1)};
  PropCutMsg prop_cut;
  prop_cut.object = O3;
  prop_cut.expected_uc = p(P1).find_out_prop(O3, P3)->uc;
  at_p1.on_prop_cut(from(P3, P1, prop_cut), prop_cut);
  EXPECT_EQ(links(p(P1).out_props()),
            (std::vector<Link>{{O1, P2}, {O1, P4}, {O2, P3}, {O3, P2}, {O3, P4}}));
}

TEST_F(PropOrder, PropSyncKeepsOrder) {
  rm::PropSyncMsg sync;
  sync.objects = {O3};
  p(P4).on_prop_sync(from(P1, P4, sync), sync);
  EXPECT_EQ(links(p(P4).in_props()), (std::vector<Link>{{O3, P2}, {O3, P1}}));
}

TEST_F(PropOrder, LeaseExpiryKeepsOrder) {
  p(P4).note_heard(P1, 90);
  Adgc::expire_leases(p(P4), 100, 50);  // P2 was never heard from
  EXPECT_EQ(links(p(P4).in_props()), (std::vector<Link>{{O1, P1}, {O3, P1}}));

  p(P1).note_heard(P2, 90);
  p(P1).note_heard(P4, 90);
  Adgc::expire_leases(p(P1), 100, 50);  // P3 was last heard at step 2
  EXPECT_EQ(links(p(P1).out_props()),
            (std::vector<Link>{{O1, P2}, {O1, P4}, {O3, P2}, {O3, P4}}));
}

TEST_F(PropOrder, ReclaimKeepsOrder) {
  // Another parent (P1) still links O3 at P4: only the link goes.
  ReclaimMsg reclaim;
  reclaim.object = O3;
  Adgc::on_reclaim(p(P4), from(P2, P4, reclaim), reclaim);
  EXPECT_EQ(links(p(P4).in_props()), (std::vector<Link>{{O1, P1}, {O3, P1}}));

  // P2's last parent of O3 goes: its subtree is unlinked too.
  Adgc::on_reclaim(p(P2), from(P1, P2, reclaim), reclaim);
  EXPECT_EQ(links(p(P2).in_props()), (std::vector<Link>{{O1, P1}}));
  EXPECT_TRUE(p(P2).out_props().empty());
}

TEST_F(PropOrder, RestoreSortsAnUnsortedImage) {
  // An image holding the lists in insertion order, as written before the
  // lists were kept sorted.
  rm::ProcessImage image = p(P1).capture_image(net.now());
  image.out_props = {{O3, P3, 2, false}, {O3, P2, 1, false}, {O1, P2, 1, false},
                     {O2, P3, 1, false}, {O3, P4, 1, true},  {O1, P4, 1, false}};
  image.in_props = {{O3, P4, 1, false}, {O2, P4, 1, true}, {O3, P2, 1, false}};
  p(P1).restore_image(image, net.now());
  EXPECT_EQ(links(p(P1).out_props()),
            (std::vector<Link>{{O1, P2}, {O1, P4}, {O2, P3}, {O3, P3}, {O3, P2},
                               {O3, P4}}));
  EXPECT_EQ(links(p(P1).in_props()),
            (std::vector<Link>{{O2, P4}, {O3, P4}, {O3, P2}}));
  ASSERT_NE(p(P1).find_out_prop(O3, P4), nullptr);
  ASSERT_NE(p(P1).find_out_prop(O3, P3), nullptr);
  EXPECT_TRUE(p(P1).find_out_prop(O3, P4)->rec_umess);
  EXPECT_EQ(p(P1).find_out_prop(O3, P3)->uc, 2u);
}

}  // namespace
}  // namespace rgc::gc
