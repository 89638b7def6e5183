// Suspicion ages for ordering cycle-detection candidates.
//
// §3.1: "efficient selection of cycle candidates is an issue out of the
// scope of this paper; heuristics found in the literature [14] may be
// used."  Candidate selection here is exhaustive — every locally
// unreachable scion anchor and replica in the snapshot is a suspect
// (Cluster::suspects) — so nothing selects on a heuristic.  What a
// heuristic still does is order: when a detection budget (the daemon's)
// cuts the suspect set short, Cluster::start_detections starts the oldest
// suspects first.
//
// SuspicionAgeTracker counts, per object, the consecutive collections it
// survived anchored only by scions/props (never by a root); any
// root-reachable collection resets it.  Members of a distributed garbage
// cycle age with every collection; so does live data held only remotely,
// which is why the age orders suspects and never rules one out.
#pragma once

#include <cstdint>
#include <map>

#include "gc/lgc/lgc.h"
#include "rm/process.h"
#include "util/ids.h"

namespace rgc::gc {

class SuspicionAgeTracker {
 public:
  /// Digests one local collection: ages objects that survived anchored
  /// only remotely (scions/props; result.unrooted), resets root-reachable
  /// ones and forgets swept ones.  Its work follows result.unrooted and
  /// the tracked entries, never the live heap.
  void after_collection(const rm::Process& process, const LgcResult& result);

  [[nodiscard]] std::uint32_t age(ObjectId obj) const;

 private:
  std::map<ObjectId, std::uint32_t> ages_;
};

}  // namespace rgc::gc
