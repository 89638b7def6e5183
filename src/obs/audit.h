// Online health auditor: always-on, O(touched-state) invariant monitoring,
// and the cluster's one invariant checker — Cluster::audit() runs it in
// full on demand.
//
// The test-only core::Oracle proves safety/completeness by re-deriving
// global reachability from scratch — a luxury no production collector has.
// The auditor checks what *can* be checked online, from the same tables and
// counters the protocols maintain anyway:
//
//  shallow (every scheduled audit; O(roots + stubs + scions + props)):
//   - root integrity: every root and transient root resolves locally.
//   - stub <-> scion bipartite matching: every stub {X, Q} held at P must
//     have the scion {P, X} at Q ("clean before send propagate" creates the
//     scion causally before any stub can exist).  A stub whose scion was
//     cut by a cycle verdict is whitelisted until the holder's next LGC
//     drops it (WARN); anything else is an ERROR.  Scions without stubs are
//     normal floating state (the NewSetStubs round retires them) and are
//     exported as a gauge, not a finding.
//   - scion anchors resolve, and a scion whose dead owner's lease expired
//     is an ERROR (the sweep in gc::Adgc::expire_leases failed); with no
//     lease configured a dead owner pins its scions legitimately (WARN).
//   - inPropList <-> outPropList pairing across every propagation edge;
//     mismatches are legal while Propagate/Reclaim/Cut/PropCut traffic is
//     in flight (WARN) and an ERROR once the propagation plane is quiet.
//     Every prop entry must name a replica that exists on its side.
//   - per-kind message conservation on the transport:
//     sent + duplicated == delivered + dropped + in_flight.
//   - CDM conservation per detection lineage (issued == delivered +
//     in-flight + discarded), fed by the net::Network::Observer hooks, plus
//     the cross-layer identity net.sent.CDM == sum of detector cdms_sent.
//
//  deep (every Nth scheduled audit, and on demand via run_deep):
//   - a read-only Lgc::mark per process; live objects' references must all
//     resolve locally (reclaim-safety, cross-checked against the ring of
//     recent reclaims), and unreachable-but-present objects are stamped and
//     aged as floating garbage (gc.floating_garbage_age).  Their references
//     must resolve too (reference integrity), so every reference in the
//     heap is checked.
//
// Findings surface as obs::HealthReport entries — never asserts — so the
// same checks run in production builds, the CLI dashboard, and CI chaos
// runs (the chaos suite audits every step and fails on any ERROR).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "net/network.h"
#include "obs/health.h"
#include "rm/tables.h"
#include "util/ids.h"
#include "util/metrics.h"

namespace rgc::core {
class Cluster;
}  // namespace rgc::core

namespace rgc::obs {

struct AuditConfig {
  /// Scheduled cadence in simulation steps; 0 disables scheduled audits
  /// (run_deep still works on demand).
  std::uint64_t interval{64};
  /// Every Nth scheduled audit also runs the deep (mark-based) checks.
  std::uint64_t deep_every{8};
};

class HealthAuditor final : public net::Network::Observer {
 public:
  HealthAuditor(core::Cluster& cluster, AuditConfig config);

  // ---- net::Network::Observer — CDM lineage accounting ------------------
  void on_send(const net::Envelope& env) override;
  void on_deliver(const net::Envelope& env) override;
  void on_drop(const net::Envelope& env) override;
  void on_duplicate(const net::Envelope& env) override;

  /// One scheduled audit (called by Cluster::step() on the configured
  /// cadence): shallow checks, plus deep checks every deep_every-th run.
  const HealthReport& run_scheduled();

  /// Full audit on demand: shallow + deep.
  const HealthReport& run_deep();

  // ---- Crash/recovery awareness (docs/FAULTS.md) -------------------------

  /// Called by Cluster::kill just before `pid`'s state is destroyed: banks
  /// the dying process's contribution to the cross-layer CDM conservation
  /// identity (its counters are about to vanish while the network totals
  /// remain) and drops cut whitelist entries that named it — so a crash
  /// never manufactures false conservation ERRORs.
  /// The banked contributions stay banked across a restart (the restarted
  /// process's counters start from zero).
  void note_crash(ProcessId pid, const util::Metrics& metrics);

  /// Latest report (empty before the first run).
  [[nodiscard]] const HealthReport& report() const noexcept { return report_; }

  /// Auditor-owned registry: counters audit.runs / audit.deep_runs /
  /// audit.findings_error_total / audit.findings_warn_total, gauges
  /// audit.last_errors / audit.last_warnings / audit.floating_scions /
  /// audit.floating_garbage / gc.floating_garbage_age.
  [[nodiscard]] const util::Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] util::Metrics& metrics() noexcept { return metrics_; }

  [[nodiscard]] const AuditConfig& config() const noexcept { return config_; }

 private:
  const HealthReport& run(bool deep);

  /// Refreshes per-process heap gauges (process.heap_slab_bytes /
  /// process.heap_live_fraction) on every scheduled audit.  Both values are
  /// functions of the simulation state alone — the arena's slab and live
  /// count evolve only through the deterministic protocol steps — so they
  /// are safe for deterministic reports, unlike wall-clock or RSS readings.
  void update_heap_gauges();

  void check_roots(HealthReport& out);
  void check_stub_scion(HealthReport& out);
  void check_prop_pairing(HealthReport& out);
  void check_conservation(HealthReport& out);
  void check_cdm_lineage(HealthReport& out);
  void deep_checks(HealthReport& out);

  core::Cluster& cluster_;
  AuditConfig config_;
  util::Metrics metrics_;
  HealthReport report_;
  std::uint64_t scheduled_runs_{0};

  // CDM lineage: detection id -> CDMs issued minus (delivered + dropped).
  // Every entry must be zero whenever no CDM is in flight; a negative value
  // at any moment means the transport delivered more than was sent.
  std::map<std::uint64_t, std::int64_t> cdm_outstanding_;
  bool cdm_negative_{false};
  std::string cdm_negative_detail_;

  /// CDM counters banked from crashed processes (note_crash): the identity
  /// becomes live detector sums + banked == network totals.
  std::uint64_t dead_cdms_sent_{0};
  std::uint64_t dead_cdms_received_{0};

  /// Stubs whose matching scion was deleted by a cycle-verdict Cut; the
  /// holder's next LGC retires them (the proven-dead cycle no longer marks
  /// them).  Until then the bipartite mismatch is expected: WARN, not
  /// ERROR.  Entries are dropped once the stub is gone or the scion
  /// reappears.  Keyed by (stub holder, stub key).
  std::set<std::pair<ProcessId, rm::StubKey>> cut_pending_;

  util::Counter runs_;
  util::Counter deep_runs_total_;
  util::Counter findings_error_total_;
  util::Counter findings_warn_total_;
  util::Gauge last_errors_;
  util::Gauge last_warnings_;
  util::Gauge floating_scions_;
  util::Gauge floating_garbage_;
  util::Gauge floating_garbage_age_;
};

}  // namespace rgc::obs
