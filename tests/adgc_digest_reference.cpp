#include "adgc_digest_reference.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "gc/adgc/adgc.h"

namespace rgc::gc {
namespace {

/// True when `obj` is anchored at `process` by something other than its
/// propagation lists (roots or scions) according to the last collection.
bool locally_anchored(const LgcResult& result, ObjectId obj) {
  auto it = result.object_reach.find(obj);
  if (it == result.object_reach.end()) return false;
  return (it->second & (kReachRoot | kReachScion)) != 0;
}

}  // namespace

void after_collection_reference(rm::Process& process,
                                const LgcResult& result) {
  auto& net = process.network();
  const ProcessId self = process.id();

  // ---- NewSetStubs to every peer we may have scions at ------------------
  std::map<ProcessId, std::vector<ObjectId>> per_peer;
  for (const auto& [key, mask] : result.stub_reach) {
    per_peer[key.target_process].push_back(key.target);
  }
  std::set<ProcessId> done_peers;
  const std::uint64_t epoch = process.next_collection_epoch();
  for (ProcessId peer : process.stub_peers()) {
    auto msg = std::make_unique<NewSetStubsMsg>();
    if (auto it = per_peer.find(peer); it != per_peer.end()) {
      msg->stub_anchors = it->second;
    } else {
      done_peers.insert(peer);
      msg->final_set = true;
    }
    msg->horizon = process.delivered_prop_seq(peer);
    msg->epoch = epoch;
    net.send(self, peer, std::move(msg));
    process.counters().newsetstubs_sent.inc();
  }
  for (ProcessId peer : done_peers) process.stub_peers().erase(peer);

  // ---- Union-Rule reporting per replicated object ------------------------
  std::set<ObjectId> replicated;
  for (const auto& e : process.in_props()) replicated.insert(e.object);
  for (const auto& e : process.out_props()) replicated.insert(e.object);

  for (ObjectId obj : replicated) {
    if (locally_anchored(result, obj)) continue;

    bool children_clear = true;
    for (const auto& e : process.out_props()) {
      if (e.object == obj && !e.rec_umess) {
        children_clear = false;
        break;
      }
    }
    if (!children_clear) continue;

    bool has_parent = false;
    for (auto& e : process.in_props()) {
      if (e.object != obj) continue;
      has_parent = true;
      if (e.sent_umess) continue;
      auto msg = std::make_unique<UnreachableMsg>();
      msg->object = obj;
      msg->uc = e.uc;
      net.send(self, e.process, std::move(msg));
      e.sent_umess = true;
      process.note_remote_mutation();
      process.counters().unreachable_sent.inc();
    }

    if (!has_parent) {
      std::vector<ProcessId> children;
      for (const auto& e : process.out_props()) {
        if (e.object == obj) children.push_back(e.process);
      }
      if (children.empty()) continue;
      for (ProcessId child : children) {
        auto msg = std::make_unique<ReclaimMsg>();
        msg->object = obj;
        net.send(self, child, std::move(msg));
        process.counters().reclaim_sent.inc();
      }
      auto& outs = process.out_props();
      outs.erase(std::remove_if(outs.begin(), outs.end(),
                                [obj](const rm::OutProp& e) {
                                  return e.object == obj;
                                }),
                 outs.end());
      process.note_remote_mutation();
    }
  }
}

}  // namespace rgc::gc
