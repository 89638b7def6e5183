#include "gc/lgc/lgc.h"

#include <cassert>
#include <utility>

#include "obs/ledger.h"
#include "obs/recorder.h"
#include "util/log.h"

namespace rgc::gc {

namespace {

/// Marks a stub and records its key in the scratch on first touch this
/// epoch, so summarization can read back the touched set without scanning
/// the whole stub table.
void mark_stub(const rm::Stub& stub, rm::MarkScratch& scratch,
               std::uint8_t bit) {
  if (stub.marks(scratch.epoch) == 0) scratch.stubs.push_back(stub.key);
  stub.mark(scratch.epoch, bit);
}

/// Marks the stub chain a reference resolves through: the exact
/// {target, via} stub when it exists, otherwise every stub designating the
/// target (defensive fallback, mirrors reference binding in rm).
void mark_stub_chain(const rm::Process& process, rm::MarkScratch& scratch,
                     ObjectId target, ProcessId via, std::uint8_t bit) {
  if (const rm::Stub* exact = process.find_stub(rm::StubKey{target, via})) {
    mark_stub(*exact, scratch, bit);
    return;
  }
  process.for_each_stub_for(
      target, [&](const rm::Stub& stub) { mark_stub(stub, scratch, bit); });
}

/// The bookkeeping every collection ends with, fresh or reused: counters,
/// histograms and the sweep event.
void record_collection(rm::Process& process, const LgcResult& result) {
  rm::ProcessCounters& counters = process.counters();
  counters.lgc_collections.inc();
  counters.lgc_reclaimed.inc(result.reclaimed.size());
  counters.reclaimed_per_collection->record(result.reclaimed.size());
  counters.traced_per_collection->record(result.traced);
  // Sweeps run in the serial phase, so the recorder's global event order
  // (and hence the .rgcrec bytes) is thread-count independent.
  if (obs::FlightRecorder* rec = process.recorder()) {
    rec->sweep(process.id(), result.reclaimed.size(), result.traced);
  }
  RGC_DEBUG("lgc: ", to_string(process.id()), " reclaimed ",
            result.reclaimed.size(), " objects, ", result.stub_reach.size(),
            " live stubs");
}

}  // namespace

void Lgc::seed(const rm::Process& process, ObjectId id, std::uint8_t bit) {
  rm::MarkScratch& scratch = process.mark_scratch();
  const rm::Heap& heap = process.heap();
  const std::uint32_t slot = heap.slot_of(id);
  if (slot != rm::Heap::kNoSlot) {
    if (heap.mark(slot, scratch.epoch, bit)) scratch.queue.push_back(slot);
  } else {
    // The seed designates a remote object: keep its stub chain alive.
    process.for_each_stub_for(
        id, [&](const rm::Stub& stub) { mark_stub(stub, scratch, bit); });
  }
}

void Lgc::drain(const rm::Process& process, std::uint8_t bit,
                std::uint64_t* traced) {
  rm::MarkScratch& scratch = process.mark_scratch();
  const rm::Heap& heap = process.heap();
  while (scratch.head < scratch.queue.size()) {
    const rm::Object& obj = heap.at_slot(scratch.queue[scratch.head++]);
    if (traced != nullptr) ++*traced;
    for (const rm::Ref& ref : obj.refs) {
      if (ref.is_local()) {
        const std::uint32_t target = heap.slot_of(ref.target);
        if (target != rm::Heap::kNoSlot) {
          if (heap.mark(target, scratch.epoch, bit)) {
            scratch.queue.push_back(target);
          }
        } else {
          // Local binding whose replica vanished: resolve through any
          // surviving chain (defensive; cannot happen in well-formed runs).
          process.for_each_stub_for(ref.target, [&](const rm::Stub& stub) {
            mark_stub(stub, scratch, bit);
          });
        }
      } else {
        // Remote binding: the reference designates the chain, not a local
        // replica that may happen to exist — SSP semantics (object.h).
        mark_stub_chain(process, scratch, ref.target, ref.via, bit);
      }
    }
  }
}

void Lgc::trace(const rm::Process& process, std::span<const ObjectId> seeds,
                std::uint8_t bit, std::uint64_t* traced) {
  for (ObjectId id : seeds) seed(process, id, bit);
  drain(process, bit, traced);
}

namespace {

/// Whether a collection keeps its remote closure for the next one to
/// retrace alone (LgcResult::remote_kept).  That retrace pays a binary
/// search or two per closure entry on top of tracing it; a fresh mark
/// pays the roots' closure and a scan of the heap.  Retracing alone wins
/// while the remote families visit at most a quarter as many objects as
/// the heap holds: ballast-heavy processes (big_heap and spanning_cycles,
/// under 5%) but not graph_store's shards, whose objects are nearly all
/// replicas (over 90%), and whose collections then pay nothing for it.
bool small_remote_closure(std::uint64_t remote_traced, std::size_t heap) {
  return 4 * remote_traced <= heap;
}

/// Phases 2-4 of mark(): the families anchored by other processes.
void trace_remote(const rm::Process& process, const LgcConfig& config,
                  std::uint64_t* traced) {
  // Phase 2 — scions: objects referenced from other processes stay alive.
  for (const auto& [key, scion] : process.scions()) {
    Lgc::seed(process, key.anchor, kReachScion);
  }
  Lgc::drain(process, kReachScion, traced);

  if (config.union_rule) {
    // Phase 3 — Union Rule: replicas propagated into this process ...
    for (const auto& e : process.in_props()) {
      Lgc::seed(process, e.object, kReachInProp);
    }
    Lgc::drain(process, kReachInProp, traced);

    // ... and replicas propagated out of it are both preserved.
    for (const auto& e : process.out_props()) {
      Lgc::seed(process, e.object, kReachOutProp);
    }
    Lgc::drain(process, kReachOutProp, traced);
  }
}

/// mark_remote()'s rewrite of one class map, `reach`, whose root bits
/// stand: `remote` lists the entries the previous trace's remote families
/// reached, `marks_of(key)` reads an entry's mask in the fresh epoch, and
/// `for_each_touched(visit)` calls visit(key, mask) for every entry this
/// trace reached (repeats allowed).  Leaves `remote` listing the new remote
/// closure and calls `lost(key)` for each entry nothing reaches any more
/// (its mask is left 0 for the caller to erase).  Cost: the old and new
/// remote closures, a binary search each.
template <typename K, typename MarksOf, typename ForEachTouched, typename Lost>
void retrace_remote(util::FlatMap<K, std::uint8_t>& reach,
                    std::vector<K>& remote, MarksOf marks_of,
                    ForEachTouched for_each_touched, Lost lost) {
  for (const K& key : remote) {
    std::uint8_t* mask = reach.find_value(key);
    assert(mask != nullptr);
    *mask = static_cast<std::uint8_t>((*mask & kReachRoot) | marks_of(key));
  }
  // An entry still without remote bits is seen for the first time; a
  // repeat visit finds the bits the first one left.
  for_each_touched([&](const K& key, std::uint8_t marks) {
    std::uint8_t* mask = reach.find_value(key);
    assert(mask != nullptr);
    if ((*mask & ~kReachRoot) != 0) return;
    *mask |= marks;
    remote.push_back(key);
  });
  std::erase_if(remote, [&](const K& key) {
    const std::uint8_t mask = *reach.find_value(key);
    if (mask == 0) lost(key);
    return (mask & ~kReachRoot) == 0;
  });
}

}  // namespace

LgcMark Lgc::mark(const rm::Process& process, const LgcConfig& config) {
  rm::MarkScratch& scratch = process.begin_mark_epoch();
  LgcMark marked;
  marked.epoch = scratch.epoch;

  // Phase 1 — mutator roots (including transient invocation roots).
  for (ObjectId root : process.heap().roots()) seed(process, root, kReachRoot);
  for (const auto& [obj, ttl] : process.transient_roots()) {
    seed(process, obj, kReachRoot);
  }
  drain(process, kReachRoot, &marked.traced);

  trace_remote(process, config, &marked.remote_traced);
  marked.traced += marked.remote_traced;
  return marked;
}

void Lgc::scan(const rm::Process& process, LgcMark& marked) {
  // One in-order heap pass reads the masks: object_reach and unrooted come
  // out in id order, and the unmarked objects are listed (id order too) for
  // apply(), which then never touches a live object.
  const rm::Heap& heap = process.heap();
  LgcResult& result = marked.result;
  result.object_reach.clear();
  result.unrooted.clear();
  result.remote_objects.clear();
  marked.unmarked.clear();
  result.object_reach.reserve(heap.size());
  const bool keep = small_remote_closure(marked.remote_traced, heap.size());
  result.remote_kept = keep;
  heap.for_each([&](ObjectId id, std::uint32_t slot, const rm::Object&) {
    if (const std::uint8_t mask = heap.marks(slot, marked.epoch)) {
      result.object_reach.append(id, mask);
      if ((mask & kReachRoot) == 0) result.unrooted.push_back(id);
      if (keep && mask != kReachRoot) result.remote_objects.push_back(id);
    } else {
      marked.unmarked.push_back(id);
    }
  });

  // The new stub set (§2.2.2): a stub survives only if some trace reached
  // it.
  result.stub_reach.clear();
  result.remote_stubs.clear();
  marked.dead_stubs.clear();
  result.stub_reach.reserve(process.stubs().size());
  for (const auto& [key, stub] : process.stubs()) {
    if (const std::uint8_t mask = stub.marks(marked.epoch)) {
      result.stub_reach.append(key, mask);
      if (keep && mask != kReachRoot) result.remote_stubs.push_back(key);
    } else {
      marked.dead_stubs.push_back(key);
    }
  }
}

LgcMark Lgc::mark_remote(const rm::Process& process, LgcResult kept,
                         const LgcConfig& config) {
  rm::MarkScratch& scratch = process.begin_mark_epoch();
  LgcMark marked;
  marked.epoch = scratch.epoch;
  trace_remote(process, config, &marked.traced);
  const rm::Heap& heap = process.heap();
  LgcResult& result = marked.result = std::move(kept);
  result.remote_kept = small_remote_closure(marked.traced, heap.size());

  // The root side is as `kept` saw it: the heap and stub table hold exactly
  // what `kept` classified, and every root bit stands.
  retrace_remote(
      result.object_reach, result.remote_objects,
      [&](ObjectId id) { return heap.marks(heap.slot_of(id), marked.epoch); },
      [&](const auto& visit) {
        for (const std::uint32_t slot : scratch.queue) {
          visit(heap.at_slot(slot).id, heap.marks(slot, marked.epoch));
        }
      },
      [](ObjectId) {});
  // Only a previously unrooted object can have lost every family; those
  // are the garbage, in the id order `unrooted` keeps.
  std::erase_if(result.unrooted, [&](ObjectId id) {
    if (*result.object_reach.find_value(id) != 0) return false;
    marked.unmarked.push_back(id);
    return true;
  });

  const auto stub_marks = [&](const rm::StubKey& key) {
    return process.find_stub(key)->marks(marked.epoch);
  };
  retrace_remote(
      result.stub_reach, result.remote_stubs, stub_marks,
      [&](const auto& visit) {
        for (const rm::StubKey& key : scratch.stubs) visit(key, stub_marks(key));
      },
      [&](const rm::StubKey& key) { marked.dead_stubs.push_back(key); });

  const auto lost = [](std::uint8_t mask) { return mask == 0; };
  if (!marked.unmarked.empty()) result.object_reach.erase_if_value(lost);
  if (!marked.dead_stubs.empty()) result.stub_reach.erase_if_value(lost);
  return marked;
}

LgcResult Lgc::apply(rm::Process& process, LgcMark marked,
                     const LgcConfig& config) {
  LgcResult result = std::move(marked.result);
  result.traced = marked.traced;
  result.reclaimed.clear();
  result.resurrected = 0;

  // Sweep the objects listed unmarked, in id order.  Finalizable ones run
  // the configured strategy and may resurrect (they stay in the heap, to
  // be finalized again next time — the Figure 6/7 worst case).
  rm::Heap& heap = process.heap();
  rm::ProcessCounters& counters = process.counters();
  const std::uint64_t now = process.network().now();
  for (const ObjectId id : marked.unmarked) {
    rm::Object& obj = *heap.find(id);
    if (obj.finalizable && config.finalizer != nullptr &&
        config.finalizer->strategy() != FinalizeStrategy::kNone) {
      obj.finalizable = false;
      if (config.finalizer->finalize(obj)) {
        ++result.resurrected;
        continue;
      }
    }
    // Reclaim-latency accounting: how long this replica floated between
    // losing its last reference (the mutator/auditor stamp) and the sweep
    // that frees it.  Unstamped objects (created-and-dropped inside one
    // step, or garbage from before auditing existed) record as 0.
    counters.reclaim_latency->record(
        obj.unlinked_at == 0 ? 0 : now - obj.unlinked_at);
    process.note_reclaimed(id, now);
    // The sweep runs in the serial phase, so the ledger stays deterministic.
    if (obs::Ledger* ledger = process.ledger(); ledger != nullptr) {
      ledger->object_reclaimed(process.id(), id, now);
    }
    result.reclaimed.push_back(id);
    heap.erase(id);
  }

  // The stub set regenerated: no trace reached the listed stubs.
  if (config.drop_dead_stubs) {
    for (const rm::StubKey& key : marked.dead_stubs) process.erase_stub(key);
  }

  // Sweep outcomes change the snapshot summary (objects gone, finalizers
  // resurrected state); stub drops already note through erase_stub.
  if (!result.reclaimed.empty() || result.resurrected != 0) {
    process.note_mutation();
  }
  record_collection(process, result);
  return result;
}

void Lgc::reuse(rm::Process& process, LgcResult& kept) {
  kept.reclaimed.clear();
  kept.resurrected = 0;
  kept.traced = 0;
  process.counters().marks_reused.inc();
  record_collection(process, kept);
}

LgcResult Lgc::collect(rm::Process& process, const LgcConfig& config) {
  LgcMark marked = mark(process, config);
  scan(process, marked);
  return apply(process, std::move(marked), config);
}

}  // namespace rgc::gc
