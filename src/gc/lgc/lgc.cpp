#include "gc/lgc/lgc.h"

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
            result.reclaimed.size(), " objects, ", result.live_stubs.size(),
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

  // Phase 2 — scions: objects referenced from other processes stay alive.
  for (const auto& [key, scion] : process.scions()) {
    seed(process, key.anchor, kReachScion);
  }
  drain(process, kReachScion, &marked.traced);

  if (config.union_rule) {
    // Phase 3 — Union Rule: replicas propagated into this process ...
    for (const auto& e : process.in_props()) {
      seed(process, e.object, kReachInProp);
    }
    drain(process, kReachInProp, &marked.traced);

    // ... and replicas propagated out of it are both preserved.
    for (const auto& e : process.out_props()) {
      seed(process, e.object, kReachOutProp);
    }
    drain(process, kReachOutProp, &marked.traced);
  }
  return marked;
}

void Lgc::scan(const rm::Process& process, LgcMark& marked) {
  // One in-order heap pass reads the masks: object_reach and unrooted come
  // out in id order, and the unmarked objects are listed (id order too) for
  // apply(), which then never touches a live object.
  const rm::Heap& heap = process.heap();
  marked.object_reach.clear();
  marked.unrooted.clear();
  marked.unmarked.clear();
  marked.object_reach.reserve(heap.size());
  heap.for_each([&](ObjectId id, std::uint32_t slot, const rm::Object&) {
    if (const std::uint8_t mask = heap.marks(slot, marked.epoch)) {
      marked.object_reach.append(id, mask);
      if ((mask & kReachRoot) == 0) marked.unrooted.push_back(id);
    } else {
      marked.unmarked.push_back(id);
    }
  });
}

LgcResult Lgc::apply(rm::Process& process, LgcMark marked,
                     const LgcConfig& config) {
  const std::uint64_t epoch = marked.epoch;
  LgcResult result;
  result.traced = marked.traced;
  result.object_reach = std::move(marked.object_reach);
  result.unrooted = std::move(marked.unrooted);

  // Sweep the objects scan() found unmarked, in id order.  Finalizable
  // ones run the configured strategy and may resurrect (they stay in the
  // heap, to be finalized again next time — the Figure 6/7 worst case).
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

  // New stub set (§2.2.2): a stub survives only if some trace reached it.
  result.stub_reach.reserve(process.stubs().size());
  for (auto it = process.stubs().begin(); it != process.stubs().end();) {
    const rm::Stub& stub = it->second;
    ++it;  // advance before a potential erase invalidates the entry
    if (const std::uint8_t mask = stub.marks(epoch)) {
      result.stub_reach.append(stub.key, mask);
      result.live_stubs.insert(stub.key);
    } else if (config.drop_dead_stubs) {
      process.erase_stub(stub.key);
    }
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
