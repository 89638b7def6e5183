// Coherence-engine half of Process: object propagation, remote invocation,
// and the corresponding message handlers.  Separated from process.cpp so
// the export/import rules of §2.1.2/§2.2.4 live in one translation unit.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "rm/process.h"
#include "util/log.h"

namespace rgc::rm {

void Process::propagate(ObjectId object, ProcessId to) {
  if (to == id_) {
    throw std::logic_error("propagate: cannot propagate to self");
  }
  Object* obj = heap_.find(object);
  if (obj == nullptr) {
    throw std::logic_error("propagate: " + to_string(object) +
                           " is not local to " + to_string(id_));
  }

  // Bump the outProp UC *before* the message leaves; the receiver adopts
  // the value, so both ends of the link agree on its update history
  // (Table 1's α -> α+1 succession is exactly this bump).
  OutProp* op = find_out_prop(object, to);
  if (op == nullptr) {
    out_props_.push_back(OutProp{object, to, 0, false});
    op = &out_props_.back();
    counters_.outprops_created.inc();
  }
  ++op->uc;
  // A fresh propagation makes any previous Unreachable report from this
  // child stale: the child is about to hold a live-looking replica again.
  op->rec_umess = false;

  auto msg = std::make_unique<PropagateMsg>();
  msg->object = object;
  msg->refs.reserve(obj->refs.size());
  obj->for_each_ref([&](const Ref& r) { msg->refs.push_back(r.target); });
  msg->payload_bytes = obj->payload_bytes;
  msg->uc = op->uc;
  const std::uint64_t seq = network_->send(id_, to, std::move(msg));

  // "Clean before send propagate": scions for every enclosed reference must
  // exist before the propagate is delivered.  Delivery happens no earlier
  // than the next simulation step, so creating them here preserves the
  // causal order scion-before-stub.
  export_references(*obj, to, seq);
  // Lease grace: a freshly exported scion's owner starts with a full lease
  // even if we have never heard from it (the propagate itself is evidence
  // we believe it alive).
  note_heard(to, network_->now());
  counters_.propagations.inc();
  // UC bump, rec_umess reset and scion creation/refresh all change the
  // summary this process would snapshot, but nothing the roots reach.
  note_remote_mutation();
  RGC_DEBUG("rm: ", to_string(id_), " propagate ", to_string(object), " -> ",
            to_string(to), " uc=", op->uc);
}

void Process::export_references(const Object& object, ProcessId to,
                                std::uint64_t seq) {
  for (const Ref& ref : object.refs) {
    const ObjectId r = ref.target;
    const ScionKey key{to, r};
    auto [it, inserted] = scions_.try_emplace(key);
    Scion& scion = it->second;
    scion.key = key;
    // Refreshing the horizon on every export protects a re-exported scion
    // from deletion by a NewSetStubs computed before this propagate landed.
    scion.created_seq = seq;
    if (std::find(scion.src_objects.begin(), scion.src_objects.end(),
                  object.id) == scion.src_objects.end()) {
      scion.src_objects.push_back(object.id);
    }
    if (inserted) counters_.scions_created.inc();
  }
}

void Process::on_propagate(const net::Envelope& env, const PropagateMsg& msg) {
  auto& horizon = delivered_prop_seq_[env.src];
  horizon = std::max(horizon, env.seq);

  // "Clean before deliver propagate": the imported references bind locally
  // when a replica of the target already lives here, and otherwise chain
  // through the sender.  The stub is created in *either* case ("if they do
  // not exist yet", §2.2.4): the sender unconditionally created the
  // matching scion at export time, and the stub — even when immediately
  // unused because the binding went local — is the handle through which
  // the next NewSetStubs round retires that scion.  Without it the scion
  // would be orphaned forever (this process might never otherwise appear
  // in the sender's peer set).
  std::vector<Ref> bound;
  bound.reserve(msg.refs.size());
  for (ObjectId r : msg.refs) {
    bound.push_back(heap_.contains(r) ? Ref{r, kNoProcess} : Ref{r, env.src});
    const StubKey key{r, env.src};
    if (stubs_.contains(key)) continue;
    ensure_stub(key, network_->now());
    stub_peers_.insert(env.src);
    counters_.stubs_created.inc();
  }

  // A fresh propagate means the parent still holds us reachable; Heap::put
  // reuses the existing node, so any floating-garbage stamp must be
  // cleared explicitly.
  heap_.put(msg.object, std::move(bound), msg.payload_bytes).unlinked_at = 0;

  InProp* ip = find_in_prop(msg.object, env.src);
  if (ip == nullptr) {
    in_props_.push_back(InProp{msg.object, env.src, msg.uc, false});
    counters_.inprops_created.inc();
  } else {
    ip->uc = msg.uc;
    // The replica just changed; any earlier Unreachable report is stale.
    ip->sent_umess = false;
  }
  counters_.propagations_delivered.inc();
  note_mutation();
  RGC_DEBUG("rm: ", to_string(id_), " delivered replica ",
            to_string(msg.object), " from ", to_string(env.src));
}

void Process::invoke(ObjectId target, std::uint32_t root_steps) {
  // Deterministic choice: the lowest-numbered target process (the index
  // keeps each target's stubs in target-process order).
  Stub* first = first_stub_for(target);
  if (first == nullptr) {
    throw std::logic_error("invoke: no stub for " + to_string(target) +
                           " on " + to_string(id_));
  }
  Stub& stub = *first;
  ++stub.ic;

  auto msg = std::make_unique<InvokeMsg>();
  msg->target = target;
  msg->ic = stub.ic;
  msg->root_steps = root_steps;
  network_->send(id_, stub.key.target_process, std::move(msg));

  // The caller holds the reference in a register for the call's duration
  // (pin_transient_root notes the mutation; the IC bump needs its own).
  pin_transient_root(target, root_steps);
  counters_.invocations.inc();
  note_mutation();
}

void Process::on_invoke(const net::Envelope& env, const InvokeMsg& msg) {
  auto it = scions_.find(ScionKey{env.src, msg.target});
  if (it == scions_.end()) {
    // Reliable FIFO transport plus scion-before-stub ordering make this
    // unreachable in a well-formed run; failing loudly catches harness bugs.
    // With faults in play it IS reachable — an invoke can race a restart
    // from a snapshot that predates the scion, or a lease expiry during a
    // partition — so fault-tolerant mode drops the call instead (the
    // reconciliation protocol re-creates the scion; see docs/FAULTS.md).
    if (fault_tolerant_) {
      counters_.invocations_orphaned.inc();
      RGC_WARN("rm: ", to_string(id_), " dropped invoke of ",
               to_string(msg.target), " from ", to_string(env.src),
               " (no scion; recovery in progress)");
      return;
    }
    throw std::logic_error("on_invoke: no scion for " + to_string(msg.target) +
                           " from " + to_string(env.src) + " on " +
                           to_string(id_));
  }
  it->second.ic = msg.ic;
  // The callee's runtime holds the target while the invocation executes
  // (or while it forwards the call further down the chain).
  pin_transient_root(msg.target, msg.root_steps);
  counters_.invocations_delivered.inc();
  note_remote_mutation();  // scion IC adopted msg.ic

  if (!heap_.contains(msg.target)) {
    // SSP chains (§2.2.4): the scion's anchor is not local — this node is
    // an intermediary of a stub–scion chain and routes the invocation one
    // hop further, bumping the next link's IC exactly like a first-hop
    // caller would (the race barrier sees every traversed link move).
    Stub* next = first_stub_for(msg.target);
    if (next == nullptr) {
      // Same fault window as the missing-scion case above: a chain hop can
      // be lost to a stale restart snapshot or a RebindNack severance.
      if (fault_tolerant_) {
        counters_.invocations_orphaned.inc();
        RGC_WARN("rm: ", to_string(id_), " dropped chained invoke of ",
                 to_string(msg.target), " (chain hop lost to a fault)");
        return;
      }
      throw std::logic_error("on_invoke: chain broken for " +
                             to_string(msg.target) + " on " + to_string(id_));
    }
    Stub& stub = *next;
    ++stub.ic;
    auto fwd = std::make_unique<InvokeMsg>();
    fwd->target = msg.target;
    fwd->ic = stub.ic;
    fwd->root_steps = msg.root_steps;
    network_->send(id_, stub.key.target_process, std::move(fwd));
    counters_.invocations_forwarded.inc();
  }
}

// ---- Fault-tolerance protocol (docs/FAULTS.md) ---------------------------

void Process::on_rebind(const net::Envelope& env, const RebindMsg& msg) {
  note_heard(env.src, network_->now());
  if (!knows(msg.anchor)) {
    // The anchor died with whatever state this process lost; tell the
    // holder its stub dangles so it can sever the chain.
    auto nack = std::make_unique<RebindNackMsg>();
    nack->anchor = msg.anchor;
    network_->send(id_, env.src, std::move(nack));
    counters_.rebind_nacks_sent.inc();
    return;
  }
  const ScionKey key{env.src, msg.anchor};
  auto [it, inserted] = scions_.try_emplace(key);
  Scion& scion = it->second;
  scion.key = key;
  // Counters never run backwards across a recovery: the stub side's history
  // wins when it is ahead (our scion may predate lost invocations).
  scion.ic = std::max(scion.ic, msg.ic);
  // created_seq deliberately keeps its value (0 for a fresh rebind): the
  // crash/partition purged any NewSetStubs computed before this window, and
  // post-recovery stub sets include the rebound stub, so no in-flight
  // propagation horizon needs to protect it.
  if (inserted) {
    counters_.scions_created.inc();
    counters_.scions_rebound.inc();
  }
  note_remote_mutation();
  RGC_DEBUG("rm: ", to_string(id_), " rebound scion ", to_string(msg.anchor),
            " for ", to_string(env.src));
}

void Process::on_rebind_nack(const net::Envelope& env,
                             const RebindNackMsg& msg) {
  note_heard(env.src, network_->now());
  sever_stub(StubKey{msg.anchor, env.src});
}

void Process::on_prop_sync(const net::Envelope& env, const PropSyncMsg& msg) {
  note_heard(env.src, network_->now());
  // msg.objects is sorted by the sender (reconciliation emits it that way).
  std::uint64_t dropped = 0;
  for (auto it = in_props_.begin(); it != in_props_.end();) {
    if (it->process == env.src &&
        !std::binary_search(msg.objects.begin(), msg.objects.end(),
                            it->object)) {
      it = in_props_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped != 0) {
    counters_.inprops_synced_out.inc(dropped);
    note_remote_mutation();
    RGC_DEBUG("rm: ", to_string(id_), " dropped ", dropped,
              " stale inProps from ", to_string(env.src));
  }
}

void Process::sever_stub(StubKey key) {
  if (!erase_stub(key)) return;
  const ObjectId target = key.target;
  const bool local = heap_.contains(target);
  const Stub* alt = first_stub_for(target);

  // References bound through the severed stub rebind through the local
  // replica or an alternative chain when one exists, and are removed
  // otherwise (the remote object is unreachable from here for good).
  std::uint64_t removed = 0;
  heap_.for_each([&](ObjectId, std::uint32_t, Object& obj) {
    for (auto it = obj.refs.begin(); it != obj.refs.end();) {
      if (it->target != target || it->via != key.target_process) {
        ++it;
        continue;
      }
      if (local) {
        it->via = kNoProcess;
        ++it;
      } else if (alt != nullptr) {
        it->via = alt->key.target_process;
        ++it;
      } else {
        it = obj.refs.erase(it);
        ++removed;
      }
    }
  });
  if (!local && alt == nullptr) {
    // Nothing resolves the target here anymore: roots pinning it are void,
    // and our own scions anchored at it now dangle — cascade the nack
    // upstream so their holders sever too (SSP chain teardown; finite,
    // since every hop deletes its scion before notifying).
    heap_.remove_root(target);
    transient_roots_.erase(target);
    for (auto it = scions_.begin(); it != scions_.end();) {
      if (it->first.anchor != target) {
        ++it;
        continue;
      }
      auto nack = std::make_unique<RebindNackMsg>();
      nack->anchor = target;
      network_->send(id_, it->first.src_process, std::move(nack));
      counters_.rebind_nacks_sent.inc();
      it = scions_.erase(it);
    }
  }
  counters_.stubs_severed.inc();
  if (removed != 0) counters_.refs_severed.inc(removed);
  note_mutation();
  RGC_DEBUG("rm: ", to_string(id_), " severed stub ", to_string(target),
            " -> ", to_string(key.target_process));
}

}  // namespace rgc::rm
