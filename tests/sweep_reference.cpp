#include "sweep_reference.h"

#include "obs/ledger.h"
#include "obs/recorder.h"

namespace rgc::gc {

LgcResult collect_reference(rm::Process& process, const LgcConfig& config) {
  const LgcMark marked = Lgc::mark(process, config);
  const std::uint64_t epoch = marked.epoch;
  LgcResult result;
  result.traced = marked.traced;

  rm::Heap& heap = process.heap();
  const std::uint64_t now = process.network().now();
  util::Histogram& reclaim_latency =
      process.metrics().histogram("gc.reclaim_latency_steps");
  result.object_reach.reserve(heap.size());
  heap.for_each([&](ObjectId id, std::uint32_t slot, rm::Object& obj) {
    if (const std::uint8_t mask = heap.marks(slot, epoch)) {
      result.object_reach.append(id, mask);
      if ((mask & kReachRoot) == 0) result.unrooted.push_back(id);
      return;
    }
    if (obj.finalizable && config.finalizer != nullptr &&
        config.finalizer->strategy() != FinalizeStrategy::kNone) {
      obj.finalizable = false;
      if (config.finalizer->finalize(obj)) {
        ++result.resurrected;
        return;
      }
    }
    reclaim_latency.record(obj.unlinked_at == 0 ? 0 : now - obj.unlinked_at);
    process.note_reclaimed(id, now);
    if (obs::Ledger* ledger = process.ledger(); ledger != nullptr) {
      ledger->object_reclaimed(process.id(), id, now);
    }
    result.reclaimed.push_back(id);
    heap.erase(id);
  });

  result.stub_reach.reserve(process.stubs().size());
  for (auto it = process.stubs().begin(); it != process.stubs().end();) {
    const rm::Stub& stub = it->second;
    ++it;
    if (const std::uint8_t mask = stub.marks(epoch)) {
      result.stub_reach.append(stub.key, mask);
    } else if (config.drop_dead_stubs) {
      process.erase_stub(stub.key);
    }
  }

  if (!result.reclaimed.empty() || result.resurrected != 0) {
    process.note_mutation();
  }
  process.counters().lgc_collections.inc();
  process.counters().lgc_reclaimed.inc(result.reclaimed.size());
  process.metrics().histogram("lgc.reclaimed_per_collection")
      .record(result.reclaimed.size());
  process.metrics().histogram("lgc.traced_per_collection").record(result.traced);
  if (obs::FlightRecorder* rec = process.recorder()) {
    rec->sweep(process.id(), result.reclaimed.size(), result.traced);
  }
  return result;
}

void SuspicionAgesReference::after_collection(const rm::Process& process,
                                              const LgcResult& result) {
  for (const auto& [obj, mask] : result.object_reach) {
    if ((mask & kReachRoot) != 0) {
      ages_.erase(obj);
    } else if ((mask & (kReachScion | kReachInProp | kReachOutProp)) != 0) {
      ++ages_[obj];
    }
  }
  for (auto it = ages_.begin(); it != ages_.end();) {
    it = process.has_replica(it->first) ? std::next(it) : ages_.erase(it);
  }
}

std::uint32_t SuspicionAgesReference::age(ObjectId obj) const {
  auto it = ages_.find(obj);
  return it == ages_.end() ? 0 : it->second;
}

}  // namespace rgc::gc
