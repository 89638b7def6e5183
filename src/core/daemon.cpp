#include "core/daemon.h"

#include <algorithm>

#include "util/trace.h"

namespace rgc::core {

GcDaemon::GcDaemon(Cluster& cluster, DaemonConfig config)
    : cluster_(cluster), config_(config) {
  if (config_.collect_period == 0) config_.collect_period = 1;
  if (config_.snapshot_period == 0) config_.snapshot_period = 1;
  collect_max_deferred_ = kCollectCeiling * config_.collect_period;
  sweep_max_deferred_ = kSweepCeiling * config_.snapshot_period;
  util::Metrics& registry = cluster_.network().metrics();
  collections_ctr_ = registry.counter("daemon.collections");
  sweeps_ctr_ = registry.counter("daemon.sweeps");
  detections_ctr_ = registry.counter("daemon.detections_started");
  skipped_sweeps_ = registry.counter("daemon.skipped_sweeps");
  skipped_collections_ = registry.counter("daemon.skipped_collections");
  forced_sweeps_ = registry.counter("daemon.forced_sweeps");
  snapshot_bytes_ = registry.counter("daemon.snapshot_bytes");
  deferred_budget_ = registry.gauge("daemon.deferred_budget");
}

void GcDaemon::step() {
  cluster_.step();
  const std::uint64_t now = cluster_.now();
  if (config_.adaptive.enabled) {
    step_adaptive(now);
  } else {
    step_fixed(now);
  }
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
  ++sweeps_;
  sweeps_ctr_.inc();
  const std::uint64_t started = cluster_.start_detections(
      pid, config_.adaptive.enabled ? config_.adaptive.detect_budget : 0);
  detections_ += started;
  detections_ctr_.inc(started);
  return started;
}

void GcDaemon::step_fixed(std::uint64_t now) {
  for (ProcessId pid : cluster_.process_ids()) {
    // Staggered by id, so processes never line up cluster-wide.
    const std::uint64_t phase = now + raw(pid);
    if (phase % config_.collect_period == 0) {
      cluster_.collect(pid);
      ++collections_;
      collections_ctr_.inc();
    }
    if (phase % config_.snapshot_period == 0) sweep(pid);
  }
}

GcDaemon::Lane& GcDaemon::lane(ProcessId pid, std::uint64_t now) {
  auto [it, inserted] = lanes_.try_emplace(pid);
  Lane& ln = it->second;
  if (inserted) {
    // Stagger first due-points by id, like the fixed schedule, so lanes
    // never line up cluster-wide.
    ln.collect_backoff = config_.collect_period;
    ln.collect_due = now + raw(pid) % config_.collect_period;
    ln.sweep_backoff = config_.snapshot_period;
    ln.sweep_due = now + raw(pid) % config_.snapshot_period;
    ln.last_sweep_at = now;
  }
  return ln;
}

void GcDaemon::step_adaptive(std::uint64_t now) {
  const DaemonConfig::Adaptive& ad = config_.adaptive;
  const std::uint64_t collect_min = config_.collect_period;
  const std::uint64_t sweep_min = config_.snapshot_period;
  // The forced-sweep safety valve reads the auditor's floating-garbage age
  // gauge (deterministic: the audit cadence is part of virtual time).
  const std::uint64_t floating_age =
      ad.max_floating_age == 0
          ? 0
          : cluster_.auditor().metrics().gauge_value("gc.floating_garbage_age");
  std::uint64_t deferral_high_water = 0;
  for (ProcessId pid : cluster_.process_ids()) {
    Lane& ln = lane(pid, now);

    // ---- Collection lane: epoch-gated, Pony-style backoff. ---------------
    // Wake-on-message: any mutation observed on a deferred lane — including
    // a Cut landing on an otherwise-quiet process — snaps the next
    // collection back to the floor.  Deferral only ever spans true quiet;
    // without this, garbage proven by a detection would sit reclaimable for
    // up to a full ceiling waiting on a backed-off schedule.
    // The woken collect runs this step: the lane was quiet, so this is one
    // prompt collection per wake, after which the lane re-enters the
    // normal min-cadence/backoff regime.
    if (ln.has_collected && ln.collect_backoff > collect_min &&
        cluster_.process(pid).mutation_epoch() != ln.last_collect_epoch) {
      ln.collect_backoff = collect_min;
      ln.collect_due = now;
    }
    if (now >= ln.collect_due) {
      const std::uint64_t epoch = cluster_.process(pid).mutation_epoch();
      const bool untouched = ln.has_collected && epoch == ln.last_collect_epoch;
      const bool at_max = ln.collect_backoff >= collect_max_deferred_;
      if (untouched && !at_max) {
        // Untouched since the last collection — it cannot have produced
        // new local garbage.  Defer, but never past the ceiling: the
        // acyclic protocol's rounds (NewSetStubs/Unreachable/Reclaim)
        // piggyback on collections and converge over *multiple* rounds,
        // so a lane at max backoff always collects when due.
        skipped_collections_.inc();
        ln.collect_backoff =
            std::min(ln.collect_backoff * 2, collect_max_deferred_);
      } else {
        cluster_.collect(pid);
        ++collections_;
        collections_ctr_.inc();
        // Re-read: the collection's own sweep/stub edits bump the epoch.
        ln.last_collect_epoch = cluster_.process(pid).mutation_epoch();
        ln.has_collected = true;
        // Mutations since last time reset the deferral (Pony's
        // productivity rule); a ceiling-forced round on a quiet heap
        // stays amortized at the ceiling.
        ln.collect_backoff = untouched ? collect_max_deferred_ : collect_min;
      }
      ln.collect_due = now + ln.collect_backoff;
    }

    // ---- Sweep lane: snapshot + budgeted detection. ----------------------
    const bool due = now >= ln.sweep_due;
    // Safety valve: proven garbage has floated past the age bound — sweep
    // even before the backoff expires, rate-limited to the min cadence so
    // a sticky gauge (deep audits refresh it sparsely) cannot thrash.
    const bool forced = ad.max_floating_age != 0 &&
                        floating_age >= ad.max_floating_age &&
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
