// Graph snapshots and their summarization (§3.5.1).
//
// Each process periodically snapshots its object graph with no coordination
// whatsoever and summarizes it "in such a way that, from the point of view
// of the cycle detector, there is no loss of relevant information": the
// whole local heap collapses to its scions, stubs and replicated objects,
// each annotated with
//   - StubsFrom / ReplicasFrom — stubs / replicated objects transitively
//     reachable *from* the entity through local references,
//   - ScionsTo / ReplicasTo — scions / replicated objects that transitively
//     lead *to* the entity,
//   - LocalReach — reachability from the process's local roots,
// plus the invocation counters (scions/stubs) and update counters (props)
// the race barrier compares pairwise when CDMs combine snapshots (§3.5.2).
//
// The detector only ever reads summaries; the live process state keeps
// running underneath (the mutator is never stopped — §3.5's whole point).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "rm/process.h"
#include "rm/tables.h"
#include "util/flat_set.h"
#include "util/ids.h"

namespace rgc::gc {

/// Identity of one inter-process reference (a stub–scion pair): the stub
/// lives on `holder` and designates `target` whose replica lives on
/// `target_process`.  This is the reference-dependency element of our CDM
/// algebra: a scion names it exactly (src_process, anchor, own process) and
/// the stub side resolves it (see DESIGN.md §7 on why links, not source
/// objects, are the safe dependency granule).
struct RefLink {
  ProcessId holder{kNoProcess};
  ObjectId target{kNoObject};
  ProcessId target_process{kNoProcess};

  friend constexpr auto operator<=>(const RefLink&, const RefLink&) = default;
};

/// Identity of one propagation link: `object` was propagated from `parent`
/// to `child`.
struct PropLink {
  ObjectId object{kNoObject};
  ProcessId parent{kNoProcess};
  ProcessId child{kNoProcess};

  friend constexpr auto operator<=>(const PropLink&, const PropLink&) = default;
};

struct ScionSummary {
  std::uint64_t ic{0};
  /// Anchor reachable from local roots (the incoming reference ends on a
  /// live object).
  bool local_reach{false};
  util::FlatSet<rm::StubKey> stubs_from;
  util::FlatSet<ObjectId> replicas_from;
  /// Local context of the *anchor*: other scions / replicated objects that
  /// transitively lead to it.  The paper's structures list these only on
  /// stubs and props; anchors need them too — a local replicated object
  /// referencing a non-replicated scion anchor is a dependency the remote
  /// side cannot see, and dropping it would let a detection declare a
  /// cycle whose member is still referenced by a (possibly live) replica.
  util::FlatSet<rm::ScionKey> scions_to;
  util::FlatSet<ObjectId> replicas_to;

  friend bool operator==(const ScionSummary&, const ScionSummary&) = default;
};

struct StubSummary {
  std::uint64_t ic{0};
  /// Stub reachable from local roots (some live path holds this remote
  /// reference, so its target cannot be garbage).
  bool local_reach{false};
  util::FlatSet<rm::ScionKey> scions_to;
  util::FlatSet<ObjectId> replicas_to;

  friend bool operator==(const StubSummary&, const StubSummary&) = default;
};

/// Snapshot of one propagation-list entry (UC + partner process).
struct PropEntrySummary {
  ProcessId process{kNoProcess};
  std::uint64_t uc{0};

  friend bool operator==(const PropEntrySummary&,
                         const PropEntrySummary&) = default;
};

struct ReplicaSummary {
  bool local_reach{false};
  util::FlatSet<rm::ScionKey> scions_to;
  util::FlatSet<ObjectId> replicas_to;
  util::FlatSet<rm::StubKey> stubs_from;
  util::FlatSet<ObjectId> replicas_from;
  std::vector<PropEntrySummary> in_props;
  std::vector<PropEntrySummary> out_props;

  friend bool operator==(const ReplicaSummary&,
                         const ReplicaSummary&) = default;
};

struct ProcessSummary {
  ProcessId process{kNoProcess};
  /// Simulation step the snapshot was taken at.
  std::uint64_t taken_at{0};
  /// Process mutation epoch the snapshot captures (rm::Process::
  /// mutation_epoch at summarize time).  Snapshot identity metadata: the
  /// cluster reuses an installed summary verbatim while the live process's
  /// epoch still matches.
  std::uint64_t mutation_epoch{0};
  std::map<rm::ScionKey, ScionSummary> scions;
  std::map<rm::StubKey, StubSummary> stubs;
  /// Keyed by object id; contains every locally replicated object (one
  /// with at least one inProp or outProp entry).
  std::map<ObjectId, ReplicaSummary> replicas;

  /// Anchor index: every scion key, sorted by (anchor, src_process) — the
  /// opposite of ScionKey's natural order — so anchor-filtered lookups on
  /// the detection hot path are a binary search instead of a full-table
  /// scan.  Derived from `scions` by rebuild_anchor_index(), which every
  /// producer of a summary calls once `scions` is complete; excluded from
  /// comparison.
  std::vector<rm::ScionKey> anchor_index;

  /// All scions anchored at `obj`; the returned span points into
  /// `anchor_index` and is invalidated by any mutation of the summary.
  [[nodiscard]] std::span<const rm::ScionKey> scions_anchored_at(
      ObjectId obj) const;

  /// Rebuilds `anchor_index` from `scions`.
  void rebuild_anchor_index();

  friend bool operator==(const ProcessSummary& a, const ProcessSummary& b) {
    return a.process == b.process && a.taken_at == b.taken_at &&
           a.mutation_epoch == b.mutation_epoch && a.scions == b.scions &&
           a.stubs == b.stubs && a.replicas == b.replicas;
  }
};

/// Serializes the process's graph and summarizes it (§3.5.1).  In the
/// paper this runs lazily off the mutator thread; in the simulator it is an
/// atomic step, which is strictly *more* adversarial for the race barrier
/// (snapshots are maximally independent across processes).
///
/// One-pass implementation: a single root trace, then an iterative Tarjan
/// condensation of the seed-reachable subgraph and per-SCC seed bitsets
/// propagated over the condensation DAG — O(graph + seeds·stubs/64)
/// instead of one full trace per scion/replica, with zero steady-state
/// scratch allocations (rm::SummarizeScratch).  Output is bit-for-bit
/// identical to the per-seed-trace reference summarizer that the
/// differential tests keep as the executable specification
/// (tests/summary_reference.h).
[[nodiscard]] ProcessSummary summarize(const rm::Process& process);

}  // namespace rgc::gc
