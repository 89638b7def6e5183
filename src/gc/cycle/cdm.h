// Cycle Detection Message (CDM) algebra (§3.3).
//
// A CDM carries:
//  - a *source set* split into propagation dependencies (replicas whose
//    unreachability must be proven because the union rule ties them to a
//    visited replica) and reference dependencies (incoming inter-process
//    references / local replicated referencers that must be proven dead),
//  - a *target set* of everything the detection has already visited, and
//  - the counter observations accumulated along the way (§3.5's barrier).
//
// "For each CDM delivered to a process, the cycle detector performs an
// algebraic matching: a cycle is found if all elements in the source set
// (including both sub-sets) appear in the target set."
//
// Element granularity: replicas (obj@process) as in the paper, plus
// reference links (holder->target) for incoming references — the paper
// denotes those by their source replica; naming the link is the same
// information made precise (a link dependency is resolved exactly when the
// detector has examined the stub side and seen every local path to it).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "gc/cycle/summary.h"
#include "net/message.h"
#include "util/flat_set.h"
#include "util/ids.h"

namespace rgc::gc {

/// One element of a CDM set: a replica or a reference link.
struct Element {
  enum class Kind : std::uint8_t { kReplica = 0, kRefLink = 1 };

  Kind tag{Kind::kReplica};
  /// kReplica: the replica itself.  kRefLink: target object @ target
  /// process of the link.
  Replica replica;
  /// kRefLink only: the process holding the stub.
  ProcessId holder{kNoProcess};

  static Element make(Replica r) { return {Kind::kReplica, r, kNoProcess}; }
  static Element make(const RefLink& l) {
    return {Kind::kRefLink, Replica{l.target, l.target_process}, l.holder};
  }

  friend constexpr auto operator<=>(const Element&, const Element&) = default;
};

std::string to_string(const Element& e);

/// A recorded counter value for one end of a link; the race barrier aborts
/// a detection when two observations of the same link disagree (§3.5.2
/// rules 3/4: "there have been remote invocations / replica updates ...
/// after one of the snapshots was taken").
struct Observation {
  std::variant<RefLink, PropLink> link;
  std::uint64_t counter{0};
};

struct Cdm {
  /// Unique per detection (process id of the initiator + a local serial).
  std::uint64_t detection_id{0};
  /// The suspect the detection started from.
  Replica candidate;

  /// Deliveries this track has accumulated (the cdm.hops histogram).
  std::uint64_t hops{0};
  /// Simulation step the detection started at (cycle.steps_to_detection).
  std::uint64_t started_step{0};

  util::FlatSet<Element> prop_deps;
  util::FlatSet<Element> ref_deps;
  util::FlatSet<Element> targets;

  /// Dependency attribution: (from, on) records "declaring `from` garbage
  /// requires `on` to be garbage" (on leads to from, or is a replica of
  /// it).  The paper's flat matching requires *every* source-set element
  /// resolved — an over-approximation that can never close a cycle whose
  /// forward traversal wandered into a replica of remotely-live data (the
  /// wanderer's dependencies poison the whole message).  The verdict here
  /// closes over the *candidate's requirement closure* instead; the flat
  /// sets still drive traversal and reporting.  See DESIGN.md §7.
  std::vector<std::pair<Element, Element>> dep_edges;

  /// Traversal continuations, in the paper's priority order (§3.3): child
  /// replicas first ("child replicas are traversed before their parents"),
  /// then references, then parents ("only when a child replica believes it
  /// belongs to a distributed cycle of garbage, it forwards its CDM to its
  /// parent replica").  forward_first normally holds children and
  /// forward_last parents; the ablation config swaps them.
  std::vector<Replica> forward_first;
  std::vector<Replica> forward_last;
  /// Reference continuations stashed while a child forward took priority;
  /// sent (as a fork, one CDM per target) when no unresolved child remains.
  std::vector<Replica> pending_refs;

  std::vector<Observation> observations;

  /// Records `obs`; returns false when a previous observation of the same
  /// link carries a different counter (race detected).
  bool observe(Observation obs);

  /// Records the dependency in the flat set (prop or ref) *and* the
  /// attribution edge from `from`.
  void require(const Element& from, const Element& on, bool prop);

  /// The candidate's requirement closure: every element transitively
  /// required for the candidate to be garbage.
  [[nodiscard]] util::FlatSet<Element> required_closure() const;

  /// Unresolved requirements: the closure minus the target set.
  [[nodiscard]] util::FlatSet<Element> unresolved() const;

  /// The refined matching: every element the candidate's garbage-ness
  /// depends on has been visited and found unreachable.
  [[nodiscard]] bool cycle_complete() const { return unresolved().empty(); }

  /// The paper's flat matching (the verdict of the flat traversal,
  /// gc::Traversal::kFlat): every source-set element in the target set.
  [[nodiscard]] util::FlatSet<Element> flat_unresolved() const;
  [[nodiscard]] bool flat_complete() const { return flat_unresolved().empty(); }

  /// "{ {prop...}, {ref...} } -> { targets... }" — the paper's notation,
  /// used in tests that assert the worked examples.
  [[nodiscard]] std::string to_string() const;
};

/// How a CDM addresses its next entity.
enum class EntryVia : std::uint8_t {
  /// Entry designates the target of a remote reference: examine the scions
  /// anchored at it (and, if replicated, the replica).
  kRef = 0,
  /// Entry designates a replica reached through a propagation link — a
  /// forward, the paper's optimization that trims CDM flooding.
  kProp = 1,
};

struct CdmMsg final : net::Message {
  Cdm cdm;
  ObjectId entry{kNoObject};
  EntryVia via{EntryVia::kRef};

  [[nodiscard]] const char* kind() const noexcept override { return "CDM"; }
  [[nodiscard]] std::size_t weight() const noexcept override {
    return 1 + cdm.prop_deps.size() + cdm.ref_deps.size() +
           cdm.targets.size() + cdm.observations.size() +
           cdm.pending_refs.size() + cdm.dep_edges.size();
  }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<CdmMsg>(*this);
  }
};

/// Verdict: instructs the candidate's process to break the detected cycle
/// by deleting the candidate's incoming dependencies recorded at detection
/// time (§3.3: "it is safe to instruct the acyclic GC to delete the scion
/// accounting for the remote reference").  Counter expectations ride along
/// so a cut that raced a mutation is skipped, never misapplied.
struct CutMsg final : net::Message {
  ObjectId candidate{kNoObject};
  std::uint64_t detection_id{0};
  /// Expected ICs of the candidate's scions at detection time.
  std::vector<std::pair<rm::ScionKey, std::uint64_t>> scion_cuts;
  /// Expected UCs of the candidate's inProp links at detection time.
  std::vector<std::pair<ProcessId, std::uint64_t>> prop_cuts;

  [[nodiscard]] const char* kind() const noexcept override { return "Cut"; }
  [[nodiscard]] bool reliable() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<CutMsg>(*this);
  }
};

/// Child -> parent companion of a prop cut: removes the parent's outProp
/// entry for the severed link (expected UC guarded).
struct PropCutMsg final : net::Message {
  ObjectId object{kNoObject};
  std::uint64_t expected_uc{0};
  /// Detection that ordered the cut — carried so cost accounting
  /// (obs::Ledger) can charge the whole cut fan-out to its cycle.
  std::uint64_t detection_id{0};

  [[nodiscard]] const char* kind() const noexcept override { return "PropCut"; }
  [[nodiscard]] bool reliable() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<PropCutMsg>(*this);
  }
};

}  // namespace rgc::gc
