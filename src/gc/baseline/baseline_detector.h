// Replication-blind baseline cycle detector — the comparator of §4/§5.2.
//
// The paper evaluates against its precursor algorithm (Veiga & Ferreira,
// IPDPS 2005 [23]), "modified to support replicas in a trivial way: object
// propagations are transformed into two remote references, one from the
// original object to the new object and other from the new object to the
// original.  In other words, inProps are transformed into scions and
// outProps are transformed into stubs."
//
// Consequences reproduced here:
//  - a single dependency set (no propagation/reference distinction);
//  - no child-before-parent forwarding: every examination floods a freshly
//    computed CDM along *every* outgoing edge of the flattened view —
//    remote references and both directions of every propagation link;
//  - identical completeness and step count ("both algorithms take the same
//    amount of time to identify the cycle ... the main difference is in how
//    they conduct their graph traversal"), but more CDMs issued.
//
// It shares the snapshot summaries and the race barrier with the main
// detector, so Figures 8/9 compare traversal policy, not bookkeeping.
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

namespace rgc::gc {

class BaselineDetector {
 public:
  explicit BaselineDetector(rm::Process& process);

  /// Installs a summary of this process's current state (see
  /// CycleDetector::install_snapshot).
  void install_snapshot(ProcessSummary summary);
  [[nodiscard]] bool has_snapshot() const noexcept { return summary_.has_value(); }
  [[nodiscard]] const ProcessSummary& summary() const { return *summary_; }

  std::function<void(const Cdm&)> on_cycle_found;

  std::optional<std::uint64_t> start_detection(ObjectId candidate);
  void on_cdm(const net::Envelope& env, const CdmMsg& msg);

 private:
  enum class Visit { kOk, kAbortLive, kAbortRace, kUnknownEntity };

  /// A hop of the flattened graph: a CDM to send after the local phase.
  struct Hop {
    ObjectId entry{kNoObject};
    ProcessId to{kNoProcess};

    friend constexpr auto operator<=>(const Hop&, const Hop&) = default;
  };

  Visit examine(Cdm& cdm, ObjectId obj, bool as_start, std::vector<Hop>& out);
  void conclude(Cdm& cdm, std::vector<Hop> out);
  bool subsumed(std::uint64_t detection, ObjectId entry,
                const util::FlatSet<Element>& targets);

  rm::Process& process_;
  std::optional<ProcessSummary> summary_;
  std::uint64_t next_serial_{0};
  std::map<std::pair<std::uint64_t, ObjectId>,
           std::vector<util::FlatSet<Element>>>
      seen_entries_;
};

}  // namespace rgc::gc
