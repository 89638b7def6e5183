// Asynchronous cycle detector (§3) — the paper's core contribution — with
// the comparator of §4/§5.2 as its second traversal.
//
// One detector instance runs per process, entirely on local snapshot
// summaries; processes cooperate only through CDMs.  A detection starts at
// a suspect replica and walks the distributed graph:
//
//   examine(replica R at P):
//     - abort the track if R (or any scion anchored at it) is reachable
//       from P's local roots — live objects end detections immediately;
//     - R joins the CDM's target set;
//     - every scion anchored at R contributes its reference link to the
//       reference-dependency set (those incoming references must be proven
//       dead before R may be declared cyclic garbage);
//     - R's inProp/outProp partners join the propagation-dependency set —
//       the Union Rule in algebra form: every replica of R must fall;
//     - continuations: ReplicasFrom (examined locally, in the same CDM) and
//       StubsFrom (a CDM per remote target).  Stubs are examined on the way
//       out: their ScionsTo/ReplicasTo become dependencies of the remote
//       target and the link itself joins the target set, resolving the
//       dependency the remote scion will raise;
//     - when no reference continuation exists, the CDM is *forwarded* (no
//       recomputation) to an unresolved propagation dependency — child
//       replicas before parents (§3.3's traversal policy, and the reason
//       this traversal floods less than the flat one below);
//     - matching: when every dependency appears in the target set, a
//       garbage cycle is proven; the candidate's recorded incoming
//       dependencies (scions / prop links) are cut, and the acyclic
//       machinery reclaims the whole cycle.
//
// Flat traversal: the paper's comparator is its precursor (IPDPS'05 [23])
// "modified to support replicas in a trivial way" — each propagation link
// becomes a pair of remote references.  It keeps one dependency set, never
// forwards, floods a fresh CDM along *every* edge of that flattened view
// (both directions of every prop link) and matches flat: same steps, more
// CDMs (§4: "the main difference is in how they conduct their graph
// traversal").  Snapshot, race barrier, subsumption and verdict are shared.
//
// Race barrier (§3.5): every examination records the snapshot's invocation
// or update counter for the links it crosses; a disagreement between two
// observations of the same link means a mutator or the coherence engine
// moved behind the detector's back — the track aborts (optimistic scheme:
// applications never block, a detection is merely wasted).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "gc/cycle/cdm.h"
#include "gc/cycle/summary.h"
#include "rm/process.h"
#include "util/ids.h"
#include "util/metrics.h"

namespace rgc::gc {

struct DetectorConfig {
  /// Forwarding order: child replicas before parents (paper policy).
  /// Ablation: false forwards to parents first.
  bool children_first{true};
  /// Continuation priority.  Default (false): child replicas are woven
  /// into the traversal ahead of reference sends — each CDM hop covers a
  /// whole triangle (prop link + its reference), halving step counts and
  /// matching the flat traversal step-for-step.  true: references first, prop
  /// forwards only when no reference remains — one dependency link per
  /// hop, which reproduces Table 2's absolute step counts (the paper's
  /// simulator charged one step per link).
  bool defer_props{false};
};

/// How a detection walks the graph; DetectorConfig tunes kReplicationAware.
enum class Traversal : std::uint8_t {
  kReplicationAware,  // §3: child-first forwarding, Cdm::cycle_complete
  kFlat,              // modified [23]: flood, Cdm::flat_complete
};

class CycleDetector {
 public:
  explicit CycleDetector(rm::Process& process, DetectorConfig config = {},
                         Traversal traversal = Traversal::kReplicationAware);

  /// Installs a summary of this process's current state (§3.5.1).
  /// Cluster::snapshot computes it — independently per process, no
  /// coordination — and installs it here.
  void install_snapshot(ProcessSummary summary);

  /// Adopts a previously-captured (possibly deserialized, possibly
  /// summarized off-line) snapshot instead of taking one now — the
  /// paper's lazy/off-line summarization path (§4).  Must belong to this
  /// process.  Throws std::invalid_argument otherwise.
  void adopt_snapshot(ProcessSummary summary);
  [[nodiscard]] bool has_snapshot() const noexcept { return summary_.has_value(); }
  [[nodiscard]] const ProcessSummary& summary() const { return *summary_; }

  /// Invoked (on the process where matching completed) with the proven
  /// cycle; the Cluster turns it into a CutMsg for the candidate process.
  std::function<void(const Cdm&)> on_cycle_found;

  /// Starts a detection with `candidate` (a local object) as the suspect.
  /// Returns the detection id, or nullopt when no snapshot exists, the
  /// candidate is unknown to it, or the candidate is locally reachable.
  std::optional<std::uint64_t> start_detection(ObjectId candidate);

  // Message handlers (wired by the Cluster dispatcher).
  void on_cdm(const net::Envelope& env, const CdmMsg& msg);
  void on_cut(const net::Envelope& env, const CutMsg& msg);
  void on_prop_cut(const net::Envelope& env, const PropCutMsg& msg);

  /// Builds the cut instruction for a proven cycle from the verdict CDM's
  /// observations (exposed for the Cluster and for tests).
  [[nodiscard]] static CutMsg make_cut(const Cdm& cdm);

  /// Installs a wall-clock histogram (owned by the caller) that receives
  /// one sample per start_detection/on_cdm invocation, in microseconds.
  /// Nondeterministic — keep it in a registry excluded from deterministic
  /// reports (core::Cluster::profile()).  nullptr disables profiling.
  void set_profile(util::Histogram* hist) noexcept { profile_us_ = hist; }

 private:
  enum class Visit { kOk, kAbortLive, kAbortRace, kUnknownEntity };

  /// Full examination of object `obj` on this process.  `as_start` applies
  /// the candidate-seeding rules (no target insertion, no own-scion
  /// dependencies — the final re-visit closes the loop instead).
  Visit examine(Cdm& cdm, ObjectId obj, bool as_start,
                std::vector<rm::StubKey>& remote_out);

  /// The flat examination: prop partners are plain dependencies and flood
  /// `hops`; local continuations merge into this CDM; no ancestor pass.
  Visit examine_flat(Cdm& cdm, ObjectId obj, bool as_start,
                     std::vector<rm::StubKey>& hops);

  /// Examines an outgoing stub continuation; queues a send when the remote
  /// side still needs visiting.  Local replicated ancestors of the link
  /// (its ReplicasTo) are reported for inline examination.
  Visit examine_stub(Cdm& cdm, const rm::StubKey& key,
                     std::vector<rm::StubKey>& remote_out,
                     util::FlatSet<ObjectId>& ancestors_out);

  /// `from` depends on its local context: scions (observed) and replicated
  /// objects (also reported in `ancestors`).  False on a race.
  bool require_context(Cdm& cdm, const Element& from,
                       const util::FlatSet<rm::ScionKey>& scions_to,
                       const util::FlatSet<ObjectId>& replicas_to,
                       util::FlatSet<ObjectId>& ancestors);

  /// An attribution edge, or (flat) a bare ref_deps entry: the flat CDM
  /// never carries dep_edges, so its weights stay the comparator's.
  void require_ref(Cdm& cdm, const Element& from, const Element& on) const;

  /// Anchor or replica of `obj` reachable from this process's local roots
  /// in the current snapshot.
  [[nodiscard]] bool locally_live(ObjectId obj) const;

  /// Post-examination: verdict, flood or forward, or end of track.
  void conclude(Cdm& cdm, const std::vector<rm::StubKey>& remote_out);

  /// §3.3's traversal policy; false when nothing was left to send.
  bool forward(Cdm& cdm, const std::vector<rm::StubKey>& remote_out);

  /// One CDM per distinct unvisited hop; false when none was left.
  bool flood(const Cdm& cdm, std::vector<rm::StubKey> hops);

  /// Sends a copy of `cdm` to `dest`.
  void send(const Cdm& cdm, const Replica& dest, EntryVia via);

  /// Counts the abort under its reason.
  void record_abort(Visit v);

  /// Per-(detection, entry) subsumption filter: an arriving CDM whose
  /// target set is a subset of one already processed here for the same
  /// entry cannot discover anything new — drop it.  Keeps flooding linear
  /// when detection branches reconverge; cleared with every new snapshot.
  bool subsumed(std::uint64_t detection, ObjectId entry,
                const util::FlatSet<Element>& targets);

  /// Counter handles, resolved once at construction (the Metrics::add
  /// string-lookup fix).
  struct Counters {
    util::Counter snapshots;
    util::Counter snapshots_adopted;
    util::Counter detections_started;
    util::Counter cdms_received;
    util::Counter drops_no_snapshot;
    util::Counter drops_subsumed;
    util::Counter cdms_sent;
    util::Counter forwards;
    util::Counter local_forks;
    util::Counter cycles_found;
    util::Counter tracks_ended;
    util::Counter aborts_live;
    util::Counter aborts_race;
    util::Counter drops_unknown_entity;
    util::Counter live_ancestor_skips;
    util::Counter live_continuation_skips;
    util::Counter live_stub_skips;
    util::Counter cuts_stale;
    util::Counter scions_cut;
    util::Counter props_cut;
    util::Counter outprops_cut;
  };

  rm::Process& process_;
  DetectorConfig config_;
  Traversal traversal_;
  Counters counters_;
  /// Distribution handles: cdm.hops (deliveries per track at verdict) and
  /// cycle.steps_to_detection (sim steps from start to proof).
  util::Histogram* hops_hist_{nullptr};
  util::Histogram* steps_hist_{nullptr};
  /// Wall-clock per-examination profiling sink; see set_profile().
  util::Histogram* profile_us_{nullptr};
  std::optional<ProcessSummary> summary_;
  std::uint64_t next_serial_{0};
  std::map<std::pair<std::uint64_t, ObjectId>,
           std::vector<util::FlatSet<Element>>>
      seen_entries_;
};

}  // namespace rgc::gc
