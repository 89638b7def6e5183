#include "core/daemon.h"

#include <algorithm>

#include "util/trace.h"

namespace rgc::core {

GcDaemon::GcDaemon(Cluster& cluster, DaemonConfig config)
    : cluster_(cluster), config_(config) {
  if (config_.collect_period == 0) config_.collect_period = 1;
  if (config_.snapshot_period == 0) config_.snapshot_period = 1;
  sweep_max_deferred_ = kSweepCeiling * config_.snapshot_period;
  util::Metrics& registry = cluster_.network().metrics();
  collections_ = registry.counter("daemon.collections");
  sweeps_ = registry.counter("daemon.sweeps");
  detections_ = registry.counter("daemon.detections_started");
  skipped_sweeps_ = registry.counter("daemon.skipped_sweeps");
  forced_sweeps_ = registry.counter("daemon.forced_sweeps");
  snapshot_bytes_ = registry.counter("daemon.snapshot_bytes");
  deferred_budget_ = registry.gauge("daemon.deferred_budget");
}

std::uint64_t GcDaemon::sweep(ProcessId pid) {
  util::ScopedProcess ctx{pid};
  // The same cadence that snapshots for detection persists the process
  // image (§3.5.1 "periodically … stores a snapshot on disk") — what a
  // later Cluster::restart rehydrates from.  Metric- and epoch-free inside
  // persist(); the daemon accounts the bytes itself.
  cluster_.persist(pid);
  snapshot_bytes_.inc(cluster_.image(pid).size());
  cluster_.snapshot(pid);
  sweeps_.inc();
  const std::uint64_t started =
      cluster_.start_detections(pid, config_.detect_budget);
  detections_.inc(started);
  return started;
}

GcDaemon::Lane& GcDaemon::lane(ProcessId pid, std::uint64_t now) {
  auto [it, inserted] = lanes_.try_emplace(pid);
  Lane& ln = it->second;
  if (inserted) {
    // Stagger first due-points by id, so lanes never line up cluster-wide.
    ln.collect_due = now + raw(pid) % config_.collect_period;
    ln.sweep_backoff = config_.snapshot_period;
    ln.sweep_due = now + raw(pid) % config_.snapshot_period;
    ln.last_sweep_at = now;
  }
  return ln;
}

void GcDaemon::step() {
  cluster_.step();
  const std::uint64_t now = cluster_.now();
  const std::uint64_t sweep_min = config_.snapshot_period;
  // The forced-sweep safety valve reads the auditor's floating-garbage age
  // gauge (deterministic: the audit cadence is part of virtual time).
  const std::uint64_t floating_age =
      config_.max_floating_age == 0
          ? 0
          : cluster_.auditor().metrics().gauge_value("gc.floating_garbage_age");
  std::uint64_t deferral_high_water = 0;
  for (ProcessId pid : cluster_.process_ids()) {
    Lane& ln = lane(pid, now);

    // ---- Collection lane: every collect_period steps. --------------------
    if (now >= ln.collect_due) {
      cluster_.collect(pid);
      collections_.inc();
      ln.collect_due = now + config_.collect_period;
    }

    // ---- Sweep lane: snapshot + budgeted detection. ----------------------
    const bool due = now >= ln.sweep_due;
    // Safety valve: proven garbage has floated past the age bound — sweep
    // even before the backoff expires, rate-limited to the min cadence so
    // a sticky gauge (deep audits refresh it sparsely) cannot thrash.
    const bool forced = config_.max_floating_age != 0 &&
                        floating_age >= config_.max_floating_age &&
                        now - ln.last_sweep_at >= sweep_min;
    if (due || forced) {
      const std::uint64_t epoch = cluster_.process(pid).mutation_epoch();
      const std::uint64_t delta = epoch - ln.last_sweep_epoch;
      const std::uint64_t elapsed = std::max<std::uint64_t>(1, now - ln.last_sweep_at);
      // Hot: the summary would be dirty again immediately — snapshotting
      // now buys detections a stale view at full price.  Idle: nothing
      // changed, the snapshot would be byte-identical to the last one.
      // Both defer; neither can defer past the ceiling (a due lane at max
      // backoff always sweeps — the completeness bound).
      const bool hot = delta * 100 >= elapsed * kHotMutationPct;
      const bool idle = delta == 0;
      const bool at_max = ln.sweep_backoff >= sweep_max_deferred_;
      if (!forced && ln.has_swept && !at_max && (hot || idle)) {
        skipped_sweeps_.inc();
        ln.sweep_backoff = std::min(ln.sweep_backoff * 2, sweep_max_deferred_);
      } else {
        if (forced && !due) forced_sweeps_.inc();
        const std::size_t cycles_before = cluster_.cycles_found().size();
        const std::uint64_t started = sweep(pid);
        // Pony's reset rule: productive detection work (suspects worth
        // chasing, or a cycle actually proven) snaps the deferral back to
        // the floor; a sweep that found nothing to do backs off.
        const bool productive =
            started > 0 || cluster_.cycles_found().size() > cycles_before;
        ln.last_sweep_epoch = cluster_.process(pid).mutation_epoch();
        ln.last_sweep_at = now;
        ln.has_swept = true;
        ln.sweep_backoff =
            productive ? sweep_min
                       : std::min(std::max(ln.sweep_backoff, sweep_min) * 2,
                                  sweep_max_deferred_);
      }
      ln.sweep_due = now + ln.sweep_backoff;
    }
    deferral_high_water = std::max(deferral_high_water, ln.sweep_backoff);
  }
  // How far the cluster's most-deferred lane has backed off — the
  // "deferred budget" the policy is currently granting itself.
  deferred_budget_.set(deferral_high_water);
}

void GcDaemon::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) step();
}

}  // namespace rgc::core
