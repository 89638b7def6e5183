// GcDaemon — the "from time to time" of the paper, made concrete.
//
// §2.2.3: "From time to time, possibly after a local collection, the ADGC
// sends a message NewSetStubs…"; §3.5: "periodically, each process stores
// a snapshot of its internal object graph".  The daemon drives exactly
// that cadence on virtual time — and, by default, *adapts* it per process
// instead of firing blindly: a fixed cadence pays for snapshot and
// detection work whether or not it can possibly find anything, which is
// precisely the cost the cycle cost ledger (obs/ledger.h) showed dominates
// detection latency and CDM/snapshot traffic.
//
// The adaptive policy follows the Pony/encore cycle detector's deferred
// scheme (min/max exponential backoff, reset on productive work) using
// signals the system already exports, all deterministic:
//
//   - `mutation_epoch` deltas: a process whose epoch is unchanged since
//     its last collection cannot have new local garbage — skip and back
//     off.  Quiescent processes thus decay toward the max deferral, where
//     the O(1) dirty-epoch summary cache makes what remains nearly free.
//     Any fresh mutation on a deferred lane (a Cut landing, a message
//     delivery that edits references) wakes it back to the floor, so
//     deferral only ever spans true quiet.
//   - mutation *rate*: a hot process would dirty its summary again
//     immediately, so snapshot sweeps back off (bounded — see below).
//   - productivity: a sweep that starts detections (or proves a cycle)
//     resets its deferral to the minimum, Pony's "collected a cycle →
//     detect eagerly again"; a sweep that finds no suspects backs off.
//   - `gc.floating_garbage_age` (auditor gauge): proven-garbage age
//     crossing a bound forces a sweep regardless of backoff — the safety
//     valve that bounds detection latency under adversarial mutation.
//
// Completeness is preserved: deferrals stretch toward max_* but sweeps
// never stop — a due lane at maximum backoff always runs, and the forced
// sweep triggers on aging floating garbage.  Each process's schedule
// remains staggered by its id (decentralization: nothing ever lines the
// processes up), every policy input is deterministic, and the mutator
// keeps running throughout — the daemon never stops the world.
//
// Detection sweeps no longer fire on every due suspect: each sweep calls
// Cluster::start_detections with a per-sweep budget, which starts the
// oldest suspects by suspicion age first (objects that survived the most
// collections anchored only remotely).
//
//   rgc::core::Cluster cluster;
//   rgc::core::GcDaemon daemon{cluster, {}};   // adaptive by default
//   ... mutate ...
//   daemon.run(200);        // 200 simulation steps with background GC
//
// `adaptive.enabled = false` reproduces the pre-adaptive fixed cadence
// exactly (the ablation baseline, and what cadence-asserting tests pin).
#pragma once

#include <cstdint>
#include <map>

#include "core/cluster.h"

namespace rgc::core {

struct DaemonConfig {
  /// Steps between local collections per process (adaptive: the *minimum*
  /// deferral — the cadence a busy process gets).
  std::uint64_t collect_period{8};
  /// Steps between snapshot + detection sweeps per process (adaptive: the
  /// minimum sweep deferral).
  std::uint64_t snapshot_period{24};

  /// Pony-style adaptive deferred detection (header comment).  Deferral
  /// doubles per unproductive due-point, up to kCollectCeiling x
  /// collect_period for collections and kSweepCeiling x snapshot_period
  /// for sweeps.
  struct Adaptive {
    bool enabled{true};
    /// Max detections started per sweep, oldest suspects first (0 = no
    /// budget — every due suspect, the pre-adaptive behavior).
    std::size_t detect_budget{8};
    /// Force a sweep (ignoring backoff) when the auditor's
    /// gc.floating_garbage_age gauge reaches this many steps.  0 disables
    /// the forced-sweep safety valve.
    std::uint64_t max_floating_age{128};
  } adaptive{};
};

class GcDaemon {
 public:
  /// Deferral ceilings, as multiples of the fixed periods.
  static constexpr std::uint64_t kCollectCeiling = 4;
  static constexpr std::uint64_t kSweepCeiling = 8;
  /// A process is "hot" when its mutation-epoch delta per elapsed step, in
  /// percent, reaches this (100 = one mutation per step).  Hot lanes defer
  /// sweeps — their summaries would be dirty again immediately.
  static constexpr std::uint64_t kHotMutationPct = 50;

  GcDaemon(Cluster& cluster, DaemonConfig config = {});

  /// Advances the cluster one step and runs whatever GC work is due.
  void step();

  /// step(), `steps` times.
  void run(std::uint64_t steps);

  [[nodiscard]] std::uint64_t collections() const noexcept { return collections_; }
  [[nodiscard]] std::uint64_t sweeps() const noexcept { return sweeps_; }
  [[nodiscard]] std::uint64_t detections_started() const noexcept {
    return detections_;
  }
  /// Due-points the adaptive policy skipped (work that a fixed cadence
  /// would have paid for).
  [[nodiscard]] std::uint64_t skipped_sweeps() const noexcept {
    return skipped_sweeps_.value();
  }
  [[nodiscard]] std::uint64_t skipped_collections() const noexcept {
    return skipped_collections_.value();
  }

 private:
  /// Per-process adaptive schedule state.
  struct Lane {
    std::uint64_t collect_due{0};
    std::uint64_t collect_backoff{0};
    std::uint64_t last_collect_epoch{0};
    bool has_collected{false};
    std::uint64_t sweep_due{0};
    std::uint64_t sweep_backoff{0};
    std::uint64_t last_sweep_epoch{0};
    std::uint64_t last_sweep_at{0};
    bool has_swept{false};
  };

  void step_fixed(std::uint64_t now);
  void step_adaptive(std::uint64_t now);
  /// The snapshot + persist + budgeted detection sweep shared by both
  /// paths.  Returns the number of detections started.
  std::uint64_t sweep(ProcessId pid);
  Lane& lane(ProcessId pid, std::uint64_t now);

  Cluster& cluster_;
  DaemonConfig config_;
  std::uint64_t collect_max_deferred_;
  std::uint64_t sweep_max_deferred_;
  std::uint64_t collections_{0};
  std::uint64_t sweeps_{0};
  std::uint64_t detections_{0};
  std::map<ProcessId, Lane> lanes_;
  /// daemon.* counters in the cluster's network registry — the fix for
  /// "daemon counters are invisible to observability" (report/Prometheus/
  /// dashboard all read that registry).
  util::Counter collections_ctr_;
  util::Counter sweeps_ctr_;
  util::Counter detections_ctr_;
  util::Counter skipped_sweeps_;
  util::Counter skipped_collections_;
  util::Counter forced_sweeps_;
  util::Counter snapshot_bytes_;
  util::Gauge deferred_budget_;
};

}  // namespace rgc::core
