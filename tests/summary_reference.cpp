#include "summary_reference.h"

#include <map>
#include <utility>
#include <vector>

#include "gc/lgc/lgc.h"

namespace rgc::gc {

namespace {

/// Forward reach of one summarization seed.
struct ForwardReach {
  util::FlatSet<rm::StubKey> stubs;
  util::FlatSet<ObjectId> replicas;
  /// Every local object the trace crossed (used to invert the relation
  /// into the ScionsTo/ReplicasTo lists).
  util::FlatSet<ObjectId> objects;
};

/// Snapshots the objects/stubs touched by the current mark epoch out of the
/// process's scratch (each object is enqueued exactly once per epoch when a
/// single trace family runs, so the queue *is* the visited set).
util::FlatSet<ObjectId> touched_objects(const rm::Process& process) {
  const rm::MarkScratch& scratch = process.mark_scratch();
  const rm::Heap& heap = process.heap();
  std::vector<ObjectId> ids;
  ids.reserve(scratch.queue.size());
  for (std::uint32_t slot : scratch.queue) ids.push_back(heap.at_slot(slot).id);
  return util::FlatSet<ObjectId>{std::move(ids)};
}

ForwardReach forward_reach(const rm::Process& process, ObjectId seed,
                           const std::map<ObjectId, ReplicaSummary>& replicas,
                           bool exclude_self) {
  const rm::MarkScratch& scratch = process.begin_mark_epoch();
  Lgc::seed(process, seed, 1);
  Lgc::drain(process, 1);

  ForwardReach out;
  out.objects = touched_objects(process);
  out.stubs = util::FlatSet<rm::StubKey>{scratch.stubs};
  for (ObjectId obj : out.objects) {
    if (exclude_self && obj == seed) continue;
    if (replicas.contains(obj)) out.replicas.insert(obj);
  }
  return out;
}

/// True when `fr` (the reach of some entity) leads to `anchor`: the anchor
/// object itself when local, any stub designating it otherwise.
bool leads_to_anchor(const rm::Process& process, const ForwardReach& fr,
                     ObjectId anchor) {
  if (process.has_replica(anchor)) return fr.objects.contains(anchor);
  bool found = false;
  process.for_each_stub_for(anchor, [&](const rm::Stub& stub) {
    found = found || fr.stubs.contains(stub.key);
  });
  return found;
}

}  // namespace

ProcessSummary summarize_reference(const rm::Process& process) {
  ProcessSummary s;
  s.process = process.id();
  s.taken_at = process.network().now();
  s.mutation_epoch = process.mutation_epoch();

  // Root reachability (mutator roots + transient invocation roots).
  util::FlatSet<ObjectId> root_objects;
  util::FlatSet<rm::StubKey> root_stubs;
  {
    const rm::MarkScratch& scratch = process.begin_mark_epoch();
    for (ObjectId root : process.heap().roots()) Lgc::seed(process, root, 1);
    for (const auto& [obj, ttl] : process.transient_roots()) {
      Lgc::seed(process, obj, 1);
    }
    Lgc::drain(process, 1);
    root_objects = touched_objects(process);
    root_stubs = util::FlatSet<rm::StubKey>{scratch.stubs};
  }

  // Replicated objects: identity, counters, local root reachability.
  for (const auto& e : process.in_props()) {
    auto& r = s.replicas[e.object];
    r.in_props.push_back({e.process, e.uc});
    r.local_reach = root_objects.contains(e.object);
  }
  for (const auto& e : process.out_props()) {
    auto& r = s.replicas[e.object];
    r.out_props.push_back({e.process, e.uc});
    r.local_reach = root_objects.contains(e.object);
  }

  // Stub skeletons (counters + LocalReach).
  for (const auto& [key, stub] : process.stubs()) {
    StubSummary& t = s.stubs[key];
    t.ic = stub.ic;
    t.local_reach = root_stubs.contains(key);
  }

  // Forward traces: one per scion (from its anchor) and one per replicated
  // object.  The inverse lists (ScionsTo/ReplicasTo) are then derived by
  // membership tests against the recorded reach.
  std::map<rm::ScionKey, ForwardReach> scion_reach;
  for (const auto& [key, scion] : process.scions()) {
    ScionSummary& t = s.scions[key];
    t.ic = scion.ic;
    t.local_reach = process.has_replica(key.anchor)
                        ? root_objects.contains(key.anchor)
                        : false;
    ForwardReach fr =
        forward_reach(process, key.anchor, s.replicas, /*exclude_self=*/false);
    t.stubs_from = fr.stubs;
    t.replicas_from = fr.replicas;
    for (const rm::StubKey& sk : fr.stubs) s.stubs[sk].scions_to.insert(key);
    for (ObjectId obj : fr.replicas) s.replicas[obj].scions_to.insert(key);
    scion_reach.emplace(key, std::move(fr));
  }

  std::map<ObjectId, ForwardReach> replica_reach;
  for (auto& [obj, summary] : s.replicas) {
    if (!process.has_replica(obj)) continue;  // entry outlived its replica
    ForwardReach fr =
        forward_reach(process, obj, s.replicas, /*exclude_self=*/true);
    summary.stubs_from = fr.stubs;
    summary.replicas_from = fr.replicas;
    for (const rm::StubKey& sk : fr.stubs) {
      s.stubs[sk].replicas_to.insert(obj);
    }
    for (ObjectId other : fr.replicas) {
      s.replicas[other].replicas_to.insert(obj);
    }
    replica_reach.emplace(obj, std::move(fr));
  }

  // Anchor-level incoming context (see ScionSummary doc comment).
  for (auto& [key, summary] : s.scions) {
    for (const auto& [other_key, fr] : scion_reach) {
      if (other_key == key) continue;
      if (leads_to_anchor(process, fr, key.anchor)) {
        summary.scions_to.insert(other_key);
      }
    }
    for (const auto& [obj, fr] : replica_reach) {
      if (obj == key.anchor) continue;
      if (leads_to_anchor(process, fr, key.anchor)) {
        summary.replicas_to.insert(obj);
      }
    }
  }

  s.rebuild_anchor_index();
  return s;
}

}  // namespace rgc::gc
