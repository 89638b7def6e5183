// Cycle-candidate selection heuristics.
//
// §3.1: "efficient selection of cycle candidates is an issue out of the
// scope of this paper; heuristics found in the literature [14] may be
// used."  [14] is Maheshwari & Liskov's *distance heuristic*: estimate,
// per object, the length of the shortest root path that keeps it alive;
// objects on distributed garbage cycles have no root path, so their
// estimates grow without bound as the estimates are refreshed, while live
// objects' estimates stabilize.  Crossing a threshold makes an object a
// detection candidate.
//
// Two per-collection digests are provided:
//
//  - DistanceHeuristic — the [14] scheme adapted to this system's
//    structures, and the selector behind core::CandidatePolicy::kDistance.
//    Distances piggyback on traffic that already flows: each local
//    collection assigns every live stub
//        dist(stub) = 1 + min(dist of entities that reach it)
//    (roots have distance 0, scions the distance their remote peer last
//    announced), and the next NewSetStubs round carries the per-anchor
//    estimates to the scion side.  A scion whose distance exceeds the
//    threshold anchors a suspect.  Replicas held alive purely by
//    propagation entries age the same way through their prop links.
//
//  - SuspicionAgeTracker — counts, per object, the consecutive
//    collections it survived anchored only by scions/props (never by a
//    root); any root-reachable collection resets it.  It selects nothing
//    itself: Cluster::start_detections reads the ages to order suspects
//    when a detection budget (the daemon's) cuts the set short.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "gc/lgc/lgc.h"
#include "rm/process.h"
#include "util/ids.h"

namespace rgc::gc {

struct ProcessSummary;

/// Distances are saturating small integers; kInfiniteDistance means "no
/// known root path".
inline constexpr std::uint32_t kInfiniteDistance = 0xffffffffu;

class DistanceHeuristic {
 public:
  /// `threshold`: a scion/replica whose estimate reaches this value is
  /// suspected of belonging to a distributed garbage cycle.  Live data in
  /// a store of diameter d stabilizes below d+1, so pick threshold > the
  /// longest expected root path.
  explicit DistanceHeuristic(std::uint32_t threshold = 4)
      : threshold_(threshold) {}

  [[nodiscard]] std::uint32_t threshold() const noexcept { return threshold_; }

  /// Digests one local collection: refreshes the per-stub estimates from
  /// the reachability classification and ages prop-only replicas.
  /// Returns the per-anchor estimates to enclose in the next NewSetStubs
  /// round (anchor -> distance), keyed by peer process.
  /// `summary` is the process's post-sweep summary.  Only the kDistance
  /// candidate policy reads these estimates, so the cluster summarizes
  /// after a collection, and calls this digest, under that policy alone.
  [[nodiscard]] std::map<ProcessId, std::map<ObjectId, std::uint32_t>>
  after_collection(const LgcResult& result, const ProcessSummary& summary);

  /// Applies the estimates a peer announced for our scions.
  void apply_remote_estimates(
      const rm::Process& process, ProcessId from,
      const std::map<ObjectId, std::uint32_t>& estimates);

  /// Current estimate for an object's local anchor (scion side), or 0 if
  /// unknown/root-reachable.
  [[nodiscard]] std::uint32_t estimate(ObjectId anchor) const;

  /// Objects whose estimates crossed the threshold.
  [[nodiscard]] std::vector<ObjectId> suspects() const;

  /// Drops state for anchors that no longer exist (scion retired).
  void prune(const rm::Process& process);

 private:
  std::uint32_t threshold_;
  /// Scion-side estimates per anchor object (max over incoming links —
  /// conservative: an anchor is suspect only when *every* path is long,
  /// but for garbage cycles all paths age together, and taking max makes
  /// live short paths reset the estimate via min at the stub side).
  std::map<ObjectId, std::uint32_t> anchor_estimates_;
  /// Aging for replicas anchored purely by propagation entries.
  std::map<ObjectId, std::uint32_t> prop_age_;
};

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
