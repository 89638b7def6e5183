// GcDaemon — the "from time to time" of the paper, made concrete.
//
// §2.2.3: "From time to time, possibly after a local collection, the ADGC
// sends a message NewSetStubs…"; §3.5: "periodically, each process stores
// a snapshot of its internal object graph".  The daemon drives that
// cadence on virtual time, one lane per process, each staggered by its id
// so nothing ever lines the processes up:
//
//   - Collections run every `collect_period` steps.  A lane keeps its next
//     due-point and collects on the first daemon step at or past it, so a
//     due-point the event-skipping clock jumped over (inside a graph
//     write's `run_until_quiescent`, say) is paid late, never missed.  A
//     collection of an unchanged process reuses its last mark
//     (Cluster::collect), so collecting a quiet lane costs next to nothing
//     and the ADGC rounds that ride on collections keep converging.
//   - Snapshot + detection sweeps back off Pony-style (the encore cycle
//     detector's min/max deferral), on signals the system already exports,
//     all deterministic:
//       - mutation *rate*: a hot process would dirty its summary again at
//         once, and an idle one would snapshot a byte-identical graph —
//         both defer, doubling up to kSweepCeiling x snapshot_period;
//       - productivity: a sweep that starts detections (or proves a cycle)
//         resets its deferral to the minimum; a sweep that finds nothing
//         backs off;
//       - `gc.floating_garbage_age` (auditor gauge): proven-garbage age
//         crossing `max_floating_age` forces a sweep regardless of backoff
//         — the valve that bounds detection latency under adversarial
//         mutation.
//     A due lane at the ceiling always sweeps, so sweeps never stop.
//   - Each sweep starts at most `detect_budget` detections through
//     Cluster::start_detections, oldest suspects by suspicion age first.
//
// The mutator keeps running throughout — the daemon never stops the world.
//
//   rgc::core::Cluster cluster;
//   rgc::core::GcDaemon daemon{cluster, {}};
//   ... mutate ...
//   daemon.run(200);        // 200 simulation steps with background GC
#pragma once

#include <cstdint>
#include <map>

#include "core/cluster.h"

namespace rgc::core {

struct DaemonConfig {
  /// Steps between local collections per process.
  std::uint64_t collect_period{8};
  /// Steps between snapshot + detection sweeps per process — the minimum
  /// sweep deferral, the cadence a productive lane gets.
  std::uint64_t snapshot_period{24};
  /// Max detections started per sweep, oldest suspects first (0 = no
  /// budget: every due suspect).
  std::size_t detect_budget{8};
  /// Force a sweep (ignoring backoff) when the auditor's
  /// gc.floating_garbage_age gauge reaches this many steps.  0 disables
  /// the forced-sweep safety valve.
  std::uint64_t max_floating_age{128};
};

class GcDaemon {
 public:
  /// Sweep deferral ceiling, as a multiple of snapshot_period.
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

  // The daemon.* counters in the cluster's network registry (one daemon
  // per cluster).
  [[nodiscard]] std::uint64_t collections() const noexcept {
    return collections_.value();
  }
  [[nodiscard]] std::uint64_t sweeps() const noexcept { return sweeps_.value(); }
  [[nodiscard]] std::uint64_t detections_started() const noexcept {
    return detections_.value();
  }
  /// Sweep due-points the backoff deferred.
  [[nodiscard]] std::uint64_t skipped_sweeps() const noexcept {
    return skipped_sweeps_.value();
  }

 private:
  /// Per-process schedule state.
  struct Lane {
    std::uint64_t collect_due{0};
    std::uint64_t sweep_due{0};
    std::uint64_t sweep_backoff{0};
    std::uint64_t last_sweep_epoch{0};
    std::uint64_t last_sweep_at{0};
    bool has_swept{false};
  };

  /// Snapshot + persist + budgeted detection sweep.  Returns the number of
  /// detections started.
  std::uint64_t sweep(ProcessId pid);
  Lane& lane(ProcessId pid, std::uint64_t now);

  Cluster& cluster_;
  DaemonConfig config_;
  std::uint64_t sweep_max_deferred_;
  std::map<ProcessId, Lane> lanes_;
  /// daemon.* counters in the cluster's network registry, so the report,
  /// Prometheus and the dashboard see them.
  util::Counter collections_;
  util::Counter sweeps_;
  util::Counter detections_;
  util::Counter skipped_sweeps_;
  util::Counter forced_sweeps_;
  util::Counter snapshot_bytes_;
  util::Gauge deferred_budget_;
};

}  // namespace rgc::core
