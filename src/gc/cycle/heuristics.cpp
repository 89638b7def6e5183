#include "gc/cycle/heuristics.h"

#include <algorithm>

#include "gc/cycle/summary.h"

namespace rgc::gc {
namespace {

constexpr std::uint32_t sat_inc(std::uint32_t d) noexcept {
  return d == kInfiniteDistance ? kInfiniteDistance : d + 1;
}

}  // namespace

std::map<ProcessId, std::map<ObjectId, std::uint32_t>>
DistanceHeuristic::after_collection(const LgcResult& result,
                                    const ProcessSummary& summary) {
  // The stub side needs each stub's incoming context; summarization
  // already computes exactly that relation, so the cluster hands in the
  // post-sweep summary from its parallel phase.
  std::map<ProcessId, std::map<ObjectId, std::uint32_t>> announce;
  for (const auto& [key, stub] : summary.stubs) {
    std::uint32_t d = kInfiniteDistance;
    if (stub.local_reach) {
      d = 1;  // a root path of length 1 ends at this remote reference
    }
    for (const rm::ScionKey& sk : stub.scions_to) {
      d = std::min(d, sat_inc(estimate(sk.anchor)));
    }
    announce[key.target_process][key.target] = d;
  }

  // Replicas anchored purely by their propagation entries age locally:
  // no root, no incoming remote reference, only the Union Rule keeps
  // them — a propagation-only cycle never resets this counter.
  for (const auto& [obj, rep] : summary.replicas) {
    auto it = result.object_reach.find(obj);
    const std::uint8_t mask =
        it == result.object_reach.end() ? 0 : it->second;
    if ((mask & (kReachRoot | kReachScion)) != 0) {
      prop_age_.erase(obj);
    } else if ((mask & (kReachInProp | kReachOutProp)) != 0) {
      ++prop_age_[obj];
    }
  }
  return announce;
}

void DistanceHeuristic::apply_remote_estimates(
    const rm::Process& process, ProcessId from,
    const std::map<ObjectId, std::uint32_t>& estimates) {
  for (const auto& [anchor, d] : estimates) {
    if (!process.scions().contains(rm::ScionKey{from, anchor})) continue;
    // Per-anchor minimum over announcing links: one short (live) path
    // anywhere resets the anchor below threshold; on a garbage cycle all
    // links age in lock-step, so the minimum grows too.
    auto [it, inserted] = anchor_estimates_.try_emplace(anchor, d);
    if (!inserted) it->second = std::min(it->second, d);
  }
}

std::uint32_t DistanceHeuristic::estimate(ObjectId anchor) const {
  auto it = anchor_estimates_.find(anchor);
  return it == anchor_estimates_.end() ? kInfiniteDistance : it->second;
}

std::vector<ObjectId> DistanceHeuristic::suspects() const {
  std::vector<ObjectId> out;
  for (const auto& [anchor, d] : anchor_estimates_) {
    if (d >= threshold_) out.push_back(anchor);
  }
  for (const auto& [obj, age] : prop_age_) {
    if (age >= threshold_ &&
        std::find(out.begin(), out.end(), obj) == out.end()) {
      out.push_back(obj);
    }
  }
  return out;
}

void DistanceHeuristic::prune(const rm::Process& process) {
  for (auto it = anchor_estimates_.begin(); it != anchor_estimates_.end();) {
    bool anchored = false;
    for (const auto& [key, scion] : process.scions()) {
      if (key.anchor == it->first) {
        anchored = true;
        break;
      }
    }
    it = anchored ? std::next(it) : anchor_estimates_.erase(it);
  }
  // Estimates only age upward between refreshes; refresh each round from
  // the announcements (the per-round min).  To let a cycle's estimates
  // grow, entries are re-aged here: the next announcement overwrites via
  // min if a shorter path appeared.
  for (auto& [anchor, d] : anchor_estimates_) d = sat_inc(d);
  for (auto it = prop_age_.begin(); it != prop_age_.end();) {
    it = process.is_replicated(it->first) ? std::next(it)
                                          : prop_age_.erase(it);
  }
}

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
