#include "obs/dashboard.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string_view>

#include "core/cluster.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/ledger.h"
#include "obs/recorder.h"
#include "rm/process.h"
#include "util/metrics.h"

namespace rgc::obs {
namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof buf - 1));
}

}  // namespace

std::string render_dashboard(const core::Cluster& cluster,
                             DashboardState& state) {
  std::string out;
  out.reserve(2048);

  // ---- Header --------------------------------------------------------
  appendf(out,
          "rgc cluster @ step %llu | %zu processes | %llu objects | "
          "%zu in flight | %zu cycles found\n",
          static_cast<unsigned long long>(cluster.now()),
          cluster.process_count(),
          static_cast<unsigned long long>(cluster.total_objects()),
          cluster.network().in_flight(), cluster.cycles_found().size());

  // ---- Health --------------------------------------------------------
  const HealthReport& health = cluster.health();
  const util::Metrics& am = cluster.auditor().metrics();
  appendf(out,
          "health: %s (%zu errors, %zu warnings, %s audit @ step %llu, "
          "%llu runs) | floating: %llu garbage (max age %llu), %llu scions\n",
          to_string(health.worst()), health.errors(), health.warnings(),
          health.deep ? "deep" : "shallow",
          static_cast<unsigned long long>(health.step),
          static_cast<unsigned long long>(health.audit_runs),
          static_cast<unsigned long long>(am.gauge_value("audit.floating_garbage")),
          static_cast<unsigned long long>(am.gauge_value("gc.floating_garbage_age")),
          static_cast<unsigned long long>(am.gauge_value("audit.floating_scions")));
  constexpr std::size_t kMaxFindings = 8;
  for (std::size_t i = 0; i < health.findings.size() && i < kMaxFindings; ++i) {
    out += "  " + health.findings[i].to_string() + '\n';
  }
  if (health.findings.size() > kMaxFindings) {
    appendf(out, "  ... and %zu more findings\n",
            health.findings.size() - kMaxFindings);
  }

  // ---- Memory ----------------------------------------------------------
  std::uint64_t slab_bytes = 0;
  std::uint64_t live_objects = 0;
  std::uint64_t slab_slots = 0;
  for (ProcessId pid : cluster.process_ids()) {
    const rm::Process& proc = cluster.process(pid);
    slab_bytes += proc.metrics().gauge_value("process.heap_slab_bytes");
    live_objects += proc.heap().size();
    slab_slots += proc.heap().slab_size();
  }
  appendf(out,
          "memory: %.1f MiB heap slabs (%llu%% live) | peak RSS %.1f MiB\n",
          static_cast<double>(slab_bytes) / (1024.0 * 1024.0),
          static_cast<unsigned long long>(
              slab_slots == 0 ? 100 : live_objects * 100 / slab_slots),
          static_cast<double>(
              cluster.profile().gauge_value("cluster.peak_rss_bytes")) /
              (1024.0 * 1024.0));

  // ---- GC daemon ------------------------------------------------------
  // Only present when a GcDaemon drives this cluster (the counters live in
  // the network registry, zero otherwise).
  const util::Metrics& nm = cluster.network().metrics();
  if (nm.get("daemon.collections") != 0 || nm.get("daemon.sweeps") != 0) {
    appendf(out,
            "daemon: %llu collections | %llu sweeps (%llu skipped, %llu "
            "forced) | %llu detections | deferred budget %llu | %.1f KiB "
            "snapshots\n",
            static_cast<unsigned long long>(nm.get("daemon.collections")),
            static_cast<unsigned long long>(nm.get("daemon.sweeps")),
            static_cast<unsigned long long>(nm.get("daemon.skipped_sweeps")),
            static_cast<unsigned long long>(nm.get("daemon.forced_sweeps")),
            static_cast<unsigned long long>(nm.get("daemon.detections_started")),
            static_cast<unsigned long long>(nm.gauge_value("daemon.deferred_budget")),
            static_cast<double>(nm.get("daemon.snapshot_bytes")) / 1024.0);
  }

  // ---- Flight recorder -------------------------------------------------
  if (const FlightRecorder* rec = cluster.recorder()) {
    appendf(out,
            "recorder: depth %llu/%zu per ring | %llu appended, %llu "
            "overwritten%s\n",
            static_cast<unsigned long long>(rec->depth()), rec->capacity(),
            static_cast<unsigned long long>(rec->appended()),
            static_cast<unsigned long long>(rec->dropped()),
            rec->divergence().found ? " | REPLAY DIVERGED" : "");
  }

  // ---- Slowest cycles (cost ledger) -----------------------------------
  if (const Ledger* ledger = cluster.ledger();
      ledger != nullptr && ledger->completed() != 0) {
    appendf(out, "slowest cycles (%llu reclaimed, %zu live):\n",
            static_cast<unsigned long long>(ledger->completed()),
            ledger->live());
    constexpr std::size_t kPanelRows = 4;
    for (const LedgerEntry* e : ledger->slowest(kPanelRows)) {
      appendf(out,
              "  #%llu %s@%s  e2e %llu = detect %llu + cut %llu + sweep "
              "%llu | %zu hops | %s\n",
              static_cast<unsigned long long>(e->detection_id),
              rgc::to_string(e->candidate).c_str(),
              rgc::to_string(e->candidate_process).c_str(),
              static_cast<unsigned long long>(e->e2e_steps),
              static_cast<unsigned long long>(e->detect_steps),
              static_cast<unsigned long long>(e->cut_wait_steps +
                                              e->cut_transit_steps),
              static_cast<unsigned long long>(e->sweep_wait_steps),
              e->path.size(), e->dominant().c_str());
    }
  }

  // ---- Per-process table ----------------------------------------------
  out += "process   objects   roots   stubs  scions   inP  outP  reclaimed\n";
  for (ProcessId pid : cluster.process_ids()) {
    const rm::Process& proc = cluster.process(pid);
    appendf(out, "%-8s %8zu %7zu %7zu %7zu %5zu %5zu %10llu\n",
            rgc::to_string(pid).c_str(), proc.heap().size(),
            proc.heap().roots().size(), proc.stubs().size(),
            proc.scions().size(), proc.in_props().size(),
            proc.out_props().size(),
            static_cast<unsigned long long>(proc.metrics().get("lgc.reclaimed")));
  }

  // ---- Traffic rates ---------------------------------------------------
  const std::uint64_t steps =
      cluster.now() > state.last_step ? cluster.now() - state.last_step : 1;
  out += state.first ? "traffic (totals):\n"
                     : "traffic (per step since last frame):\n";
  constexpr std::string_view kSentPrefix = "net.sent.";
  for (const auto& [name, total] : cluster.network().metrics().snapshot()) {
    if (!name.starts_with(kSentPrefix)) continue;
    const std::string kind = name.substr(kSentPrefix.size());
    const std::uint64_t prev =
        state.first ? 0
                    : (state.last_traffic.contains(name)
                           ? state.last_traffic.at(name)
                           : 0);
    if (state.first) {
      appendf(out, "  %-12s total %llu\n", kind.c_str(),
              static_cast<unsigned long long>(total));
    } else {
      appendf(out, "  %-12s %8.2f/step  (total %llu)\n", kind.c_str(),
              static_cast<double>(total - prev) / static_cast<double>(steps),
              static_cast<unsigned long long>(total));
    }
    state.last_traffic[name] = total;
  }

  // ---- Reclaim latency (merged across processes) ----------------------
  util::Histogram latency;
  for (ProcessId pid : cluster.process_ids()) {
    if (const util::Histogram* h = cluster.process(pid).metrics().find_histogram(
            "gc.reclaim_latency_steps")) {
      latency.merge(*h);
    }
  }
  if (latency.count() != 0) {
    out += "reclaim latency (steps): " + latency.to_string() + '\n';
  }

  // ---- Phase wall-clock timers ----------------------------------------
  bool timer_header = false;
  for (const auto& [name, hist] : cluster.profile().histogram_snapshot()) {
    if (hist->count() == 0) continue;
    if (!timer_header) {
      out += "phase timers (wall us):\n";
      timer_header = true;
    }
    appendf(out, "  %-20s mean %8.1f  p99 %8llu  n=%llu\n", name.c_str(),
            hist->mean(),
            static_cast<unsigned long long>(hist->percentile(0.99)),
            static_cast<unsigned long long>(hist->count()));
  }

  state.last_step = cluster.now();
  state.first = false;
  return out;
}

}  // namespace rgc::obs
