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

/// Detection ids: the initiator's pid in the high half, a serial local to
/// it (below 2^32) in the low half.
constexpr std::uint64_t make_detection_id(ProcessId initiator,
                                          std::uint64_t serial) noexcept {
  return (static_cast<std::uint64_t>(raw(initiator)) << 32) | serial;
}
/// The process that started detection `id`, whose candidate it is.
constexpr ProcessId detection_initiator(std::uint64_t id) noexcept {
  return ProcessId{static_cast<std::uint32_t>(id >> 32)};
}

struct Cdm {
  /// Unique per detection (make_detection_id).
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
  ///
  /// Written only by require(), which keeps the edges sorted and
  /// duplicate-free: the list doubles as the adjacency index (the edges
  /// out of `from` are one equal_range).
  [[nodiscard]] const std::vector<std::pair<Element, Element>>& dep_edges()
      const noexcept {
    return dep_edges_;
  }

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

  /// Every observation in the order it was made, consistent repeats
  /// included: the verdict's cut list is built in this order, and the
  /// message weight counts every entry.  Written only by observe().
  [[nodiscard]] const std::vector<Observation>& observations() const noexcept {
    return observations_;
  }

  /// Records `obs`; returns false when a previous observation of the same
  /// link carries a different counter (race detected).  O(log links).
  bool observe(Observation obs);

  /// Records the dependency in the flat set (prop or ref) *and* the
  /// attribution edge from `from`, extending the candidate's closure when
  /// `from` is in it.
  void require(const Element& from, const Element& on, bool prop);

  /// The candidate's requirement closure: every element transitively
  /// required for the candidate to be garbage.
  [[nodiscard]] util::FlatSet<Element> required_closure() const;

  /// Unresolved requirements: the closure minus the target set.
  [[nodiscard]] util::FlatSet<Element> unresolved() const;

  /// The refined matching: every element the candidate's garbage-ness
  /// depends on has been visited and found unreachable.  One merge pass
  /// over the maintained closure and the target set; allocates nothing
  /// unless `candidate` changed since the last require().
  [[nodiscard]] bool cycle_complete() const;

  /// The paper's flat matching (the verdict of the flat traversal,
  /// gc::Traversal::kFlat): every source-set element in the target set.
  [[nodiscard]] util::FlatSet<Element> flat_unresolved() const;
  [[nodiscard]] bool flat_complete() const {
    return prop_deps.subset_of(targets) && ref_deps.subset_of(targets);
  }

  /// "{ {prop...}, {ref...} } -> { targets... }" — the paper's notation,
  /// used in tests that assert the worked examples.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::pair<Element, Element>> dep_edges_;
  std::vector<Observation> observations_;

  // Indexes over the two lists above.  They are derived state, not part of
  // the message: CdmMsg::weight() never counts them.
  /// The first counter seen per link, sorted by link: observe()'s lookup.
  std::vector<Observation> observed_;
  /// Everything dep_edges_ reaches from closure_root_, closure_root_
  /// itself excluded; grown by require().
  util::FlatSet<Element> closure_;
  /// The candidate closure_ was grown from.  require() regrows closure_
  /// when `candidate` has changed since, and the readers walk dep_edges_
  /// instead of trusting closure_ until it has.
  Replica closure_root_;
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
           cdm.targets.size() + cdm.observations().size() +
           cdm.pending_refs.size() + cdm.dep_edges().size();
  }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<CdmMsg>(*this);
  }
};

/// Verdict: instructs one process to break the detected cycle by deleting
/// the incoming dependencies one member of the proven closure had at
/// detection time (§3.3: "it is safe to instruct the acyclic GC to delete
/// the scion accounting for the remote reference").  A verdict sends one
/// per member (gc::CycleDetector::make_cuts).  Counter expectations ride
/// along so a cut that raced a mutation is skipped, never misapplied.
struct CutMsg final : net::Message {
  /// The closure member to cut (the detection's candidate in its own cut).
  ObjectId candidate{kNoObject};
  std::uint64_t detection_id{0};
  /// Expected ICs of the member's scions at detection time.
  std::vector<std::pair<rm::ScionKey, std::uint64_t>> scion_cuts;
  /// Expected UCs of the member's inProp links at detection time.
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
  /// Detection that ordered the cut — carried so cost accounting can
  /// charge the whole cut fan-out to its cycle.
  std::uint64_t detection_id{0};

  [[nodiscard]] const char* kind() const noexcept override { return "PropCut"; }
  [[nodiscard]] bool reliable() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<PropCutMsg>(*this);
  }
};

}  // namespace rgc::gc
