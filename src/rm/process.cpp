#include "rm/process.h"

#include <algorithm>
#include <stdexcept>

#include "util/log.h"

namespace rgc::rm {

ProcessCounters::ProcessCounters(util::Metrics& metrics)
    : objects_created(metrics.counter("rm.objects_created")),
      ref_assignments(metrics.counter("rm.ref_assignments")),
      ref_removals(metrics.counter("rm.ref_removals")),
      propagations(metrics.counter("rm.propagations")),
      propagations_delivered(metrics.counter("rm.propagations_delivered")),
      invocations(metrics.counter("rm.invocations")),
      invocations_delivered(metrics.counter("rm.invocations_delivered")),
      invocations_forwarded(metrics.counter("rm.invocations_forwarded")),
      scions_created(metrics.counter("rm.scions_created")),
      stubs_created(metrics.counter("rm.stubs_created")),
      inprops_created(metrics.counter("rm.inprops_created")),
      outprops_created(metrics.counter("rm.outprops_created")),
      lgc_collections(metrics.counter("lgc.collections")),
      lgc_reclaimed(metrics.counter("lgc.reclaimed")),
      marks_reused(metrics.counter("lgc.marks_reused")),
      scions_deleted(metrics.counter("adgc.scions_deleted")),
      lease_expirations(metrics.counter("gc.lease_expirations")),
      summarize_reused(metrics.counter("cycle.summarize_reused")),
      newsetstubs_sent(metrics.counter("adgc.newsetstubs_sent")),
      unreachable_sent(metrics.counter("adgc.unreachable_sent")),
      reclaim_sent(metrics.counter("adgc.reclaim_sent")),
      newsetstubs_stale(metrics.counter("adgc.newsetstubs_stale")),
      unreachable_stale(metrics.counter("adgc.unreachable_stale")),
      unreachable_received(metrics.counter("adgc.unreachable_received")),
      reclaim_forwarded(metrics.counter("adgc.reclaim_forwarded")),
      reclaim_received(metrics.counter("adgc.reclaim_received")),
      lease_inprops_dropped(metrics.counter("gc.lease_inprops_dropped")),
      lease_outprops_dropped(metrics.counter("gc.lease_outprops_dropped")),
      lease_peers_expired(metrics.counter("gc.lease_peers_expired")),
      marks_remote(metrics.counter("lgc.marks_remote")),
      invocations_orphaned(metrics.counter("rm.invocations_orphaned")),
      rebind_nacks_sent(metrics.counter("rm.rebind_nacks_sent")),
      scions_rebound(metrics.counter("rm.scions_rebound")),
      inprops_synced_out(metrics.counter("rm.inprops_synced_out")),
      stubs_severed(metrics.counter("rm.stubs_severed")),
      refs_severed(metrics.counter("rm.refs_severed")),
      recover_sent(metrics.counter("rm.recover_sent")),
      recover_received(metrics.counter("rm.recover_received")),
      rebinds_sent(metrics.counter("rm.rebinds_sent")),
      propsyncs_sent(metrics.counter("rm.propsyncs_sent")),
      reconciliations(metrics.counter("rm.reconciliations")),
      reclaim_latency(&metrics.histogram("gc.reclaim_latency_steps")),
      reclaimed_per_collection(
          &metrics.histogram("lgc.reclaimed_per_collection")),
      traced_per_collection(&metrics.histogram("lgc.traced_per_collection")) {}

Process::Process(ProcessId id, net::Network& network)
    : id_(id), network_(&network) {}

Object& Process::create_object(ObjectId id, std::uint32_t payload_bytes) {
  if (heap_.contains(id)) {
    throw std::logic_error("create_object: " + to_string(id) +
                           " already exists on " + to_string(id_));
  }
  counters_.objects_created.inc();
  note_mutation();
  return heap_.put(id, {}, payload_bytes);
}

void Process::add_ref(ObjectId from, ObjectId to) {
  Object* src = heap_.find(from);
  if (src == nullptr) {
    throw std::logic_error("add_ref: source " + to_string(from) +
                           " is not local to " + to_string(id_));
  }
  // §2.1.2: a process can only assign references it already holds; an
  // inter-process reference appears here only because a replica enclosing
  // it was propagated in earlier.  The binding is fixed at assignment time:
  // local replica if one exists, else the (deterministically first) stub.
  Ref ref{to, kNoProcess};
  if (!heap_.contains(to)) {
    const auto stubs = stubs_for(to);
    if (stubs.empty()) {
      throw std::logic_error("add_ref: target " + to_string(to) +
                             " is not resolvable on " + to_string(id_));
    }
    ref.via = stubs.front().target_process;
  }
  src->add_ref(ref);
  counters_.ref_assignments.inc();
  note_mutation();
  // Re-linked: the target is referenced again, so any floating-garbage
  // clock started for it is stale.
  if (Object* obj = heap_.find(to)) obj->unlinked_at = 0;
}

void Process::remove_ref(ObjectId from, ObjectId to) {
  Object* src = heap_.find(from);
  if (src == nullptr) {
    throw std::logic_error("remove_ref: source " + to_string(from) +
                           " is not local to " + to_string(id_));
  }
  src->remove_ref(to);
  counters_.ref_removals.inc();
  note_mutation();
  // Start the floating-garbage clock: this removal *may* have orphaned the
  // target.  Over-approximate here (the target can still be reachable
  // through other paths); the deep audit clears stamps on objects a mark
  // proves reachable, and re-linking clears them in add_ref/add_root.
  if (Object* obj = heap_.find(to)) {
    if (obj->unlinked_at == 0) obj->unlinked_at = network_->now();
  }
}

void Process::add_root(ObjectId target) {
  if (!knows(target)) {
    throw std::logic_error("add_root: " + to_string(target) +
                           " is not resolvable on " + to_string(id_));
  }
  heap_.add_root(target);
  note_mutation();
  if (Object* obj = heap_.find(target)) obj->unlinked_at = 0;
}

void Process::remove_root(ObjectId target) {
  heap_.remove_root(target);
  note_mutation();
  if (Object* obj = heap_.find(target)) {
    if (obj->unlinked_at == 0) obj->unlinked_at = network_->now();
  }
}

std::vector<StubKey> Process::stubs_for(ObjectId target) const {
  std::vector<StubKey> out;
  for_each_stub_for(target, [&](const Stub& stub) { out.push_back(stub.key); });
  return out;
}

bool Process::knows(ObjectId id) const {
  return heap_.contains(id) || stub_index_.contains(id);
}

Stub& Process::ensure_stub(StubKey key, std::uint64_t created_at) {
  auto [it, inserted] = stubs_.try_emplace(key, Stub{key, 0, created_at});
  if (inserted) {
    // Keep the per-target bucket ordered by target process, matching the
    // key order of stubs_ (StubKey orders by target then target_process).
    auto& bucket = stub_index_[key.target];
    auto pos = std::lower_bound(
        bucket.begin(), bucket.end(), key.target_process,
        [](const Stub* s, ProcessId p) { return s->key.target_process < p; });
    bucket.insert(pos, &it->second);
    note_mutation();
  }
  return it->second;
}

bool Process::erase_stub(StubKey key) {
  auto it = stubs_.find(key);
  if (it == stubs_.end()) return false;
  auto bucket_it = stub_index_.find(key.target);
  auto& bucket = bucket_it->second;
  bucket.erase(std::find(bucket.begin(), bucket.end(), &it->second));
  if (bucket.empty()) stub_index_.erase(bucket_it);
  stubs_.erase(it);
  note_mutation();
  return true;
}

Stub* Process::find_stub(StubKey key) {
  auto it = stubs_.find(key);
  return it == stubs_.end() ? nullptr : &it->second;
}

InProp* Process::find_in_prop(ObjectId object, ProcessId from) {
  for (InProp& e : prop_range(in_props_, object)) {
    if (e.process == from) return &e;
  }
  return nullptr;
}

OutProp* Process::find_out_prop(ObjectId object, ProcessId to) {
  for (OutProp& e : prop_range(out_props_, object)) {
    if (e.process == to) return &e;
  }
  return nullptr;
}

const InProp* Process::find_in_prop(ObjectId object, ProcessId from) const {
  return const_cast<Process*>(this)->find_in_prop(object, from);
}

const OutProp* Process::find_out_prop(ObjectId object, ProcessId to) const {
  return const_cast<Process*>(this)->find_out_prop(object, to);
}

bool Process::is_replicated(ObjectId object) const {
  return !prop_range(in_props_, object).empty() ||
         !prop_range(out_props_, object).empty();
}

std::vector<ProcessId> Process::prop_parents(ObjectId object) const {
  std::vector<ProcessId> out;
  for (const auto& e : prop_range(in_props_, object)) out.push_back(e.process);
  return out;
}

std::vector<ProcessId> Process::prop_children(ObjectId object) const {
  std::vector<ProcessId> out;
  for (const auto& e : prop_range(out_props_, object)) out.push_back(e.process);
  return out;
}

void Process::pin_transient_root(ObjectId target, std::uint32_t steps) {
  if (steps == 0) return;
  auto& ttl = transient_roots_[target];
  ttl = std::max(ttl, steps);
  note_mutation();
}

void Process::tick(std::uint64_t elapsed) {
  for (auto it = transient_roots_.begin(); it != transient_roots_.end();) {
    if (it->second <= elapsed) {
      it = transient_roots_.erase(it);
      note_mutation();
    } else {
      it->second -= static_cast<std::uint32_t>(elapsed);
      ++it;
    }
  }
}

std::uint32_t Process::next_transient_expiry() const noexcept {
  std::uint32_t min_ttl = 0;
  for (const auto& [obj, ttl] : transient_roots_) {
    if (min_ttl == 0 || ttl < min_ttl) min_ttl = ttl;
  }
  return min_ttl;
}

std::uint64_t Process::next_lease_expiry(std::uint64_t timeout) const noexcept {
  // Same peer set as gc::Adgc::expire_leases: scion owners and propagation
  // partners (stubs are deliberately lease-exempt there).
  std::uint64_t earliest = ~std::uint64_t{0};
  const auto consider = [&](ProcessId peer) {
    if (peer == id_) return;
    const std::uint64_t at = last_heard(peer) + timeout;
    if (at < earliest) earliest = at;
  };
  for (const auto& [key, scion] : scions_) consider(key.src_process);
  for (const auto& e : in_props_) consider(e.process);
  for (const auto& e : out_props_) consider(e.process);
  return earliest;
}

std::uint64_t Process::delivered_prop_seq(ProcessId src) const {
  auto it = delivered_prop_seq_.find(src);
  return it == delivered_prop_seq_.end() ? 0 : it->second;
}

}  // namespace rgc::rm
