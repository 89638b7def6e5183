#include "gc/cycle/heuristics.h"

namespace rgc::gc {

void SuspicionAgeTracker::after_collection(const rm::Process& process,
                                           const LgcResult& result) {
  // Age survivors anchored only remotely (scions/props)...
  for (ObjectId obj : result.unrooted) ++ages_[obj];
  // ... and walk the table alone for the rest: root-reachable entries
  // reset, swept ones drop.  An entry the collection did not classify (a
  // finalizer resurrected it) keeps its age.
  for (auto it = ages_.begin(); it != ages_.end();) {
    const auto reach = result.object_reach.find(it->first);
    const bool rooted = reach != result.object_reach.end() &&
                        (reach->second & kReachRoot) != 0;
    it = rooted || !process.has_replica(it->first) ? ages_.erase(it)
                                                    : std::next(it);
  }
}

std::uint32_t SuspicionAgeTracker::age(ObjectId obj) const {
  auto it = ages_.find(obj);
  return it == ages_.end() ? 0 : it->second;
}

}  // namespace rgc::gc
