// Structured health findings produced by the online auditor (obs/audit.h).
//
// A Finding is one observed invariant violation (or transient anomaly) with
// a severity, the invariant's stable name, and the process it was observed
// at; a HealthReport is one audit run's worth of findings plus run
// bookkeeping.  Deliberately dependency-light (ids + strings only) so the
// cluster facade and the report layer can embed it without pulling in the
// auditor itself.
//
// Severity semantics:
//  - kOk    — informational; never rendered as a finding.
//  - kWarn  — a state that is legal while specific traffic is in flight
//             (e.g. an inProp whose outProp twin is severed while a Reclaim
//             travels) or expected to converge at the next collection.
//  - kError — a protocol invariant is violated; on a healthy build this
//             indicates corruption or a collector bug.  CI fails on any.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/ids.h"

namespace rgc::obs {

enum class Severity : std::uint8_t { kOk = 0, kWarn = 1, kError = 2 };

[[nodiscard]] inline const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kWarn:
      return "WARN";
    case Severity::kError:
      return "ERROR";
    case Severity::kOk:
    default:
      return "OK";
  }
}

struct Finding {
  Severity severity{Severity::kOk};
  /// Stable invariant name, e.g. "stub_scion", "prop_pairing",
  /// "net_conservation", "cdm_lineage", "reclaim_safety".
  std::string invariant;
  /// Process the violation was observed at; kNoProcess for cluster-wide
  /// findings (conservation identities span the whole transport).
  ProcessId process{kNoProcess};
  std::string detail;

  [[nodiscard]] std::string to_string() const {
    std::string out = "[";
    out += obs::to_string(severity);
    out += "] ";
    out += invariant;
    if (process != kNoProcess) {
      out += " @ ";
      out += rgc::to_string(process);
    }
    out += ": ";
    out += detail;
    return out;
  }
};

struct HealthReport {
  /// Simulation step the audit ran at.
  std::uint64_t step{0};
  /// Cumulative scheduled/deep run counts at the time of this report.
  std::uint64_t audit_runs{0};
  std::uint64_t deep_runs{0};
  /// True when this report includes the deep (mark-based) checks.
  bool deep{false};
  std::vector<Finding> findings;
  /// Scan coverage, for "did it actually look at anything" asserts
  /// (references are checked by deep audits only).
  std::uint64_t checked_refs{0};
  std::uint64_t checked_stubs{0};
  std::uint64_t checked_scions{0};
  std::uint64_t checked_props{0};

  [[nodiscard]] std::size_t errors() const {
    std::size_t n = 0;
    for (const Finding& f : findings) n += f.severity == Severity::kError;
    return n;
  }
  [[nodiscard]] std::size_t warnings() const {
    std::size_t n = 0;
    for (const Finding& f : findings) n += f.severity == Severity::kWarn;
    return n;
  }
  [[nodiscard]] Severity worst() const {
    Severity w = Severity::kOk;
    for (const Finding& f : findings) {
      if (f.severity > w) w = f.severity;
    }
    return w;
  }
  /// Worst severity per process (processes without findings are omitted).
  [[nodiscard]] std::vector<std::pair<ProcessId, Severity>> per_process() const {
    std::vector<std::pair<ProcessId, Severity>> out;
    for (const Finding& f : findings) {
      if (f.process == kNoProcess) continue;
      bool found = false;
      for (auto& [pid, sev] : out) {
        if (pid == f.process) {
          if (f.severity > sev) sev = f.severity;
          found = true;
          break;
        }
      }
      if (!found) out.emplace_back(f.process, f.severity);
    }
    return out;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out = "health @ step " + std::to_string(step) + ": " +
                      obs::to_string(worst()) + " (" +
                      std::to_string(errors()) + " errors, " +
                      std::to_string(warnings()) + " warnings, " +
                      (deep ? "deep" : "shallow") + " audit)";
    for (const Finding& f : findings) {
      out += "\n  ";
      out += f.to_string();
    }
    return out;
  }
};

}  // namespace rgc::obs
