#include "gc/adgc/adgc.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/recorder.h"
#include "util/log.h"

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

void Adgc::after_collection(rm::Process& process, const LgcResult& result) {
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
      done_peers.insert(peer);  // empty set: peer drops all our scions
      msg->final_set = true;    // one-shot, must arrive (see adgc.h)
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

    // All children must have reported before this replica may speak for
    // its subtree (otherwise a live grandchild could be lost).
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
      RGC_DEBUG("adgc: ", to_string(self), " reports ", to_string(obj),
                " unreachable to ", to_string(e.process));
    }

    if (!has_parent) {
      // Root of the propagation tree, unreachable itself, whole subtree
      // reported: dismantle the tree (§2.2.3 rule 2).
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
      RGC_DEBUG("adgc: ", to_string(self), " reclaims propagation tree of ",
                to_string(obj));
    }
  }
}

void Adgc::on_new_set_stubs(rm::Process& process, const net::Envelope& env,
                            const NewSetStubsMsg& msg) {
  // Stale-set guard: the unreliable plane may reorder announcements; an
  // older stub set must never retract a newer one.
  auto& last_epoch = process.newsetstubs_epochs()[env.src];
  if (msg.epoch <= last_epoch) {
    process.counters().newsetstubs_stale.inc();
    return;
  }
  last_epoch = msg.epoch;

  std::set<ObjectId> anchors(msg.stub_anchors.begin(), msg.stub_anchors.end());
  auto& scions = process.scions();
  for (auto it = scions.begin(); it != scions.end();) {
    const rm::Scion& scion = it->second;
    const bool from_sender = it->first.src_process == env.src;
    // Horizon guard: a scion created by a propagate the sender had not yet
    // delivered when it computed its stub set must survive this round.
    const bool protected_by_horizon = scion.created_seq > msg.horizon;
    if (from_sender && !protected_by_horizon &&
        !anchors.contains(it->first.anchor)) {
      process.counters().scions_deleted.inc();
      RGC_DEBUG("adgc: ", to_string(process.id()), " drops scion for ",
                to_string(it->first.anchor), " from ", to_string(env.src));
      it = scions.erase(it);
      process.note_remote_mutation();
    } else {
      ++it;
    }
  }
}

void Adgc::on_unreachable(rm::Process& process, const net::Envelope& env,
                          const UnreachableMsg& msg) {
  rm::OutProp* e = process.find_out_prop(msg.object, env.src);
  if (e == nullptr) return;  // link already reclaimed
  if (e->uc != msg.uc) {
    // Crossed by a re-propagation: the report describes an older replica
    // state and must not unlock the parent.
    process.counters().unreachable_stale.inc();
    return;
  }
  if (!e->rec_umess) {
    e->rec_umess = true;
    process.note_remote_mutation();
  }
  process.counters().unreachable_received.inc();
}

void Adgc::on_reclaim(rm::Process& process, const net::Envelope& env,
                      const ReclaimMsg& msg) {
  const ObjectId obj = msg.object;
  auto& ins = process.in_props();
  const std::size_t ins_before = ins.size();
  ins.erase(std::remove_if(ins.begin(), ins.end(),
                           [&](const rm::InProp& e) {
                             return e.object == obj && e.process == env.src;
                           }),
            ins.end());
  if (ins.size() != ins_before) process.note_remote_mutation();

  // Forward down the tree only when nothing else anchors the replica here:
  // another parent still linked keeps the subtree in place.
  bool other_parent = false;
  for (const auto& e : ins) {
    if (e.object == obj) {
      other_parent = true;
      break;
    }
  }
  if (other_parent) return;

  std::vector<ProcessId> children;
  for (const auto& e : process.out_props()) {
    if (e.object == obj) children.push_back(e.process);
  }
  for (ProcessId child : children) {
    auto fwd = std::make_unique<ReclaimMsg>();
    fwd->object = obj;
    process.network().send(process.id(), child, std::move(fwd));
    process.counters().reclaim_forwarded.inc();
  }
  auto& outs = process.out_props();
  const std::size_t outs_before = outs.size();
  outs.erase(std::remove_if(outs.begin(), outs.end(),
                            [obj](const rm::OutProp& e) {
                              return e.object == obj;
                            }),
             outs.end());
  if (outs.size() != outs_before) process.note_remote_mutation();
  process.counters().reclaim_received.inc();
  if (obs::FlightRecorder* rec = process.recorder()) {
    rec->reclaim_decision(process.id(), env.src, obj);
  }
  RGC_DEBUG("adgc: ", to_string(process.id()), " unlinked replica ",
            to_string(obj), " after Reclaim from ", to_string(env.src));
}

std::uint64_t Adgc::expire_leases(rm::Process& process, std::uint64_t now,
                                  std::uint64_t timeout) {
  // Peers holding leased state here: scion owners and propagation partners.
  // Stubs are deliberately NOT expired — a stub toward a dead process is
  // the surviving half of a reference that may resolve again after a
  // restart; it costs nothing to keep and the reconciliation protocol
  // (rebind / rebind-nack) settles its fate when the peer returns.
  std::set<ProcessId> peers;
  for (const auto& [key, scion] : process.scions()) peers.insert(key.src_process);
  for (const auto& e : process.in_props()) peers.insert(e.process);
  for (const auto& e : process.out_props()) peers.insert(e.process);

  std::uint64_t expired_scions = 0;
  for (const ProcessId peer : peers) {
    if (peer == process.id()) continue;
    const std::uint64_t heard = process.last_heard(peer);
    if (now < heard + timeout) continue;  // lease still current

    // Scions: the existing ADGC retirement path, triggered by timeout
    // instead of a NewSetStubs round — the owner has missed its lease, so
    // its references no longer count as anchors.
    auto& scions = process.scions();
    bool changed = false;
    for (auto it = scions.begin(); it != scions.end();) {
      if (it->first.src_process != peer) {
        ++it;
        continue;
      }
      process.counters().scions_deleted.inc();
      process.counters().lease_expirations.inc();
      RGC_DEBUG("adgc: ", to_string(process.id()), " lease-expires scion for ",
                to_string(it->first.anchor), " owned by ", to_string(peer));
      it = scions.erase(it);
      ++expired_scions;
      changed = true;
    }

    // Propagation links: a dead peer's inProps no longer protect our
    // replicas (Union Rule counts only live parents), and our outProps
    // toward it can never complete the Unreachable/Reclaim hand-shake —
    // both would pin the subtree as floating garbage forever.
    auto& ins = process.in_props();
    const std::size_t ins_before = ins.size();
    ins.erase(std::remove_if(
                  ins.begin(), ins.end(),
                  [peer](const rm::InProp& e) { return e.process == peer; }),
              ins.end());
    if (ins.size() != ins_before) {
      process.counters().lease_inprops_dropped.inc(ins_before - ins.size());
      changed = true;
    }
    auto& outs = process.out_props();
    const std::size_t outs_before = outs.size();
    outs.erase(std::remove_if(
                   outs.begin(), outs.end(),
                   [peer](const rm::OutProp& e) { return e.process == peer; }),
               outs.end());
    if (outs.size() != outs_before) {
      process.counters().lease_outprops_dropped.inc(outs_before - outs.size());
      changed = true;
    }
    if (changed) {
      process.counters().lease_peers_expired.inc();
      process.note_remote_mutation();
    }
  }
  if (expired_scions != 0) {
    if (obs::FlightRecorder* rec = process.recorder()) {
      rec->lease_expiry(process.id(), expired_scions);
    }
  }
  return expired_scions;
}

}  // namespace rgc::gc
