// Ablation — the design choices DESIGN.md calls out, measured one at a
// time on the scalability mesh:
//
//  1. child-before-parent forwarding (§3.3's traversal policy) vs
//     parents-first: both complete; the policy shifts where the traversal
//     pays its visits.
//  2. Union Rule on/off in the LGC: without it the collector reclaims the
//     parent replica of live remote data — the Figure 1 failure, counted
//     as lost live objects.
//  3. The subsumption filter: detections re-run under identical snapshots
//     to show duplicate CDMs being absorbed.
//  4. Detector cadence scored by the cost ledger: how often the cyclic
//     phase runs trades reclaim latency (ledger e2e decomposition) against
//     CDM traffic (ledger per-cycle attribution) — the aggregate counters
//     alone cannot separate "slow because waiting for the detector" from
//     "slow because the strand is long"; the ledger can.
//  5. The background GcDaemon alone: the same garbage waves driven
//     end-to-end by the daemon's schedule (fixed collection cadence,
//     backed-off sweeps, budgeted detections).  Scored by GC bytes (CDM
//     wire weight + snapshot bytes) per reclaimed cycle and by the
//     ledger's unlink->reclaim p90, once the oracle confirms it complete.
//
// The safety claims are checks: the bench exits 1 when the Union Rule row
// loses a live object, or when an Ablation 4/5 run leaves garbage behind
// (`left`, oracle) or ends with audit errors (`errs`).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/cluster.h"
#include "core/daemon.h"
#include "core/oracle.h"
#include "gc/adgc/adgc.h"
#include "gc/lgc/lgc.h"
#include "obs/health.h"
#include "obs/ledger.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace {

using namespace rgc;

struct Outcome {
  std::uint64_t steps{0};
  std::uint64_t cdms{0};
  std::uint64_t forwards{0};
  bool converged{false};
};

Outcome run_policy(bool children_first, std::size_t R, std::size_t D) {
  core::ClusterConfig cfg;
  cfg.detector.children_first = children_first;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(cluster, {R, D});
  const auto before = cluster.network().total_sent("CDM");
  cluster.snapshot_all();
  const auto start = cluster.now();
  cluster.detect(mesh.head_process, mesh.head);
  while (cluster.cycles_found().empty() && !cluster.network().idle()) {
    cluster.step();
  }
  Outcome out;
  out.converged = !cluster.cycles_found().empty();
  out.steps = cluster.now() - start;
  cluster.run_until_quiescent();
  out.cdms = cluster.network().total_sent("CDM") - before;
  out.forwards = cluster.metric_total("cycle.forwards");
  return out;
}

// ---- Ablation 4: detector cadence, costed by the ledger --------------------

struct CadenceScore {
  std::uint64_t cycles{0};         // completed ledger entries
  std::uint64_t reclaimed{0};
  double mean_pending{0};          // steps, unlink -> detection started
  double mean_detect{0};           // steps on the CDM critical path
  double mean_full{0};             // steps, unlink -> candidate reclaimed
  std::uint64_t cdm_weight{0};     // ledger-attributed CDM bytes
  std::uint64_t steps{0};
  std::uint64_t leftover{0};       // oracle: dead objects still present
  std::uint64_t audit_errors{0};
};

/// Garbage arrives in waves (a fresh mesh every 6 collection rounds) while
/// the cyclic phase runs once every `cadence` rounds.  The ledger then
/// scores the cadence: unlink -> detection-start wait (the latency a rarer
/// detector adds), the CDM critical path itself, and the CDM bytes spent —
/// aggregate counters see only totals, the per-cycle entries expose where
/// the latency actually lives.
CadenceScore run_cadence(std::uint64_t cadence) {
  core::ClusterConfig cfg;
  cfg.net.seed = 5;
  cfg.audit_interval = 0;
  core::Cluster cluster{cfg};

  const std::uint64_t start = cluster.now();
  constexpr int kRounds = 24;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 6 == 0) {  // a new wave of cyclic garbage
      workload::build_mesh(cluster, {4, 6, /*extra_replicas=*/1});
      cluster.run_until_quiescent();
    }
    cluster.collect_all();
    cluster.run_until_quiescent();
    if ((round + 1) % static_cast<int>(cadence) == 0) {
      cluster.snapshot_all();
      for (ProcessId pid : cluster.process_ids()) {
        for (ObjectId suspect : cluster.suspects(pid)) {
          cluster.detect(pid, suspect);
        }
      }
      cluster.run_until_quiescent();
    }
  }
  // Final detection + sweep rounds so every wave's cuts cascade to reclaim.
  cluster.run_full_gc(4);

  CadenceScore score;
  score.steps = cluster.now() - start;
  score.leftover = core::Oracle::analyze(cluster).garbage_objects().size();
  score.audit_errors = cluster.audit().errors();
  const obs::Ledger* ledger = cluster.ledger();
  for (const obs::LedgerEntry* e : ledger->entries()) {
    if (!e->complete || e->unlinked_step == 0) continue;
    ++score.cycles;
    score.reclaimed += e->members_reclaimed;
    score.mean_pending +=
        static_cast<double>(e->started_step - e->unlinked_step);
    score.mean_detect += static_cast<double>(e->detect_steps);
    score.mean_full +=
        static_cast<double>(e->reclaimed_step - e->unlinked_step);
    score.cdm_weight += e->cdm_weight;
  }
  if (score.cycles != 0) {
    score.mean_pending /= static_cast<double>(score.cycles);
    score.mean_detect /= static_cast<double>(score.cycles);
    score.mean_full /= static_cast<double>(score.cycles);
  }
  return score;
}

// ---- Ablation 5: the background daemon -------------------------------------

struct DaemonScore {
  std::uint64_t cycles{0};          // completed ledger entries
  std::uint64_t reclaimed{0};       // cycle members reclaimed
  double mean_e2e{0};               // ledger e2e: detection start -> reclaim
  std::uint64_t p90_e2e{0};
  double wave_lag{0};               // steps, wave built -> first detection
  std::uint64_t cdm_bytes{0};       // net.weight.CDM wire bytes
  std::uint64_t snapshot_bytes{0};  // daemon.snapshot_bytes
  std::uint64_t collections{0};
  std::uint64_t sweeps{0};
  std::uint64_t skipped{0};         // sweeps the backoff deferred
  std::uint64_t waves{0};           // spanning garbage cycles built
  std::uint64_t leftover{0};        // oracle: dead objects still present
  std::uint64_t audit_errors{0};

  /// GC bytes per reclaimed spanning cycle.  Each wave builds exactly one
  /// garbage cycle, and leftover == 0 certifies every wave was reclaimed —
  /// normalizing by waves, not ledger entries, keeps a schedule from
  /// looking cheaper by splitting the same garbage across more detections.
  [[nodiscard]] double bytes_per_cycle() const {
    return static_cast<double>(cdm_bytes + snapshot_bytes) /
           static_cast<double>(waves == 0 ? 1 : waves);
  }
};

/// The same garbage waves as Ablation 4, but driven entirely by the
/// background GcDaemon — no explicit collect/snapshot/detect calls, so the
/// daemon's schedule alone decides what GC work runs.  Mutation then stops
/// and the daemon must finish the job on its own (the sweep ceiling's
/// completeness guarantee); the run is scored only after the oracle
/// confirms nothing is left.
DaemonScore run_daemon() {
  core::ClusterConfig cfg;
  cfg.net.seed = 5;
  core::Cluster cluster{cfg};
  core::GcDaemon daemon{cluster};

  constexpr int kRounds = 24;
  std::vector<std::uint64_t> wave_steps;
  for (int round = 0; round < kRounds; ++round) {
    if (round % 6 == 0) {  // a new wave of cyclic garbage
      workload::build_mesh(cluster, {4, 6, /*extra_replicas=*/1});
      wave_steps.push_back(cluster.now());
    }
    daemon.run(30);
  }
  // Endgame: mutation has stopped; keep the daemon running until the
  // oracle reports the cluster clean (bounded — the bound only caps a
  // regression).
  std::uint64_t leftover = 0;
  for (int i = 0; i < 8; ++i) {
    daemon.run(250);
    cluster.run_until_quiescent();
    leftover = core::Oracle::analyze(cluster).garbage_objects().size();
    if (leftover == 0) break;
  }

  DaemonScore s;
  s.waves = wave_steps.size();
  s.leftover = leftover;
  s.audit_errors = cluster.audit().errors();
  // Ledger e2e (detection start -> candidate reclaimed).  The daemon's
  // winning candidate is rarely the root-dropped head, so the per-entry
  // unlinked stamp is unknown here; the deferral cost is measured directly
  // instead, as the lag from each wave's build to the first detection the
  // daemon starts afterwards.
  std::vector<std::uint64_t> e2e;
  for (const obs::LedgerEntry* e : cluster.ledger()->entries()) {
    if (!e->complete) continue;
    ++s.cycles;
    s.reclaimed += e->members_reclaimed;
    e2e.push_back(e->e2e_steps);
    s.mean_e2e += static_cast<double>(e->e2e_steps);
  }
  if (s.cycles != 0) {
    s.mean_e2e /= static_cast<double>(s.cycles);
    std::sort(e2e.begin(), e2e.end());
    s.p90_e2e = e2e[std::min(e2e.size() - 1, e2e.size() * 9 / 10)];
  }
  std::size_t waves_scored = 0;
  for (const std::uint64_t wave : wave_steps) {
    std::uint64_t lag = 0;
    bool found = false;
    for (const obs::LedgerEntry* e : cluster.ledger()->entries()) {
      if (e->started_step < wave) continue;
      const std::uint64_t d = e->started_step - wave;
      if (!found || d < lag) lag = d;
      found = true;
    }
    if (!found) continue;
    ++waves_scored;
    s.wave_lag += static_cast<double>(lag);
  }
  if (waves_scored != 0) s.wave_lag /= static_cast<double>(waves_scored);
  const util::Metrics& nm = cluster.network().metrics();
  s.cdm_bytes = nm.get("net.weight.CDM");
  s.snapshot_bytes = nm.get("daemon.snapshot_bytes");
  s.collections = daemon.collections();
  s.sweeps = daemon.sweeps();
  s.skipped = daemon.skipped_sweeps();
  return s;
}

}  // namespace

int main() {
  bool safe = true;
  std::printf("Ablation 1 — forwarding policy (ring mesh)\n");
  std::printf("%4s %6s | %18s | %18s\n", "R", "deps", "children-first",
              "parents-first");
  std::printf("%4s %6s | %8s %9s | %8s %9s\n", "", "", "steps", "cdms",
              "steps", "cdms");
  for (const std::size_t R : {2, 4}) {
    for (const std::size_t D : {10, 50}) {
      const Outcome child = run_policy(true, R, D);
      const Outcome parent = run_policy(false, R, D);
      std::printf("%4zu %6zu | %8llu %9llu | %8llu %9llu%s\n", R, D,
                  static_cast<unsigned long long>(child.steps),
                  static_cast<unsigned long long>(child.cdms),
                  static_cast<unsigned long long>(parent.steps),
                  static_cast<unsigned long long>(parent.cdms),
                  child.converged && parent.converged ? "" : "  (!)");
    }
  }

  std::printf("\nAblation 2 — Union Rule on/off (Figure 1 safety workload)\n");
  for (const bool union_rule : {true, false}) {
    core::Cluster cluster;
    const auto fig = workload::build_figure1(cluster);
    const auto before = core::Oracle::analyze(cluster);
    gc::LgcConfig lgc_cfg;
    lgc_cfg.union_rule = union_rule;
    for (int i = 0; i < 4; ++i) {
      for (ProcessId pid : cluster.process_ids()) {
        const auto r = gc::Lgc::collect(cluster.process(pid), lgc_cfg);
        gc::Adgc::after_collection(cluster.process(pid), r);
      }
      cluster.run_until_quiescent();
    }
    const auto after = core::Oracle::analyze(cluster);
    std::size_t lost = 0;
    for (ObjectId obj : before.live_objects) {
      if (!after.object_exists(obj)) ++lost;
    }
    std::printf("  union_rule=%-5s -> live objects lost: %zu %s\n",
                union_rule ? "on" : "off", lost,
                lost == 0 ? "(safe)" : "(REFERENTIAL INTEGRITY BROKEN)");
    if (union_rule && lost != 0) safe = false;
    (void)fig;
  }

  std::printf("\nAblation 3 — subsumption filter (repeat detection, same "
              "snapshots)\n");
  {
    core::Cluster cluster;
    const workload::Mesh mesh = workload::build_mesh(cluster, {3, 10});
    cluster.snapshot_all();
    cluster.detect(mesh.head_process, mesh.head);
    cluster.run_until_quiescent();
    const auto first_drops = cluster.metric_total("cycle.drops_subsumed");
    // Same detection id cannot be replayed from outside; but a second
    // detection against the *unchanged* snapshots traverses the identical
    // graph — the per-detection filter keeps the two detections' traffic
    // apart (no false sharing), while duplicated deliveries within one
    // detection (e.g. injected by the network) are absorbed.
    core::ClusterConfig lossy;
    lossy.net.duplicate_probability = 0.8;
    lossy.net.seed = 99;
    core::Cluster dup_cluster{lossy};
    const workload::Mesh dup_mesh = workload::build_mesh(dup_cluster, {3, 10});
    dup_cluster.snapshot_all();
    dup_cluster.detect(dup_mesh.head_process, dup_mesh.head);
    dup_cluster.run_until_quiescent();
    std::printf(
        "  clean run: %llu subsumption drops; 80%% duplication: %llu drops, "
        "cycle still found: %s\n",
        static_cast<unsigned long long>(first_drops),
        static_cast<unsigned long long>(
            dup_cluster.metric_total("cycle.drops_subsumed")),
        dup_cluster.cycles_found().empty() ? "NO" : "yes");
  }

  std::printf("\nAblation 4 — detector cadence, scored by the cost ledger\n");
  std::printf("%8s | %6s %9s | %8s %8s %8s | %10s | %5s %5s\n", "cadence",
              "cycles", "reclaimed", "pending", "detect", "full", "cdm bytes",
              "left", "errs");
  for (const std::uint64_t cadence : {1ull, 2ull, 4ull, 8ull}) {
    const CadenceScore s = run_cadence(cadence);
    const bool clean = s.leftover == 0 && s.audit_errors == 0;
    safe = safe && clean;
    std::printf(
        "%8llu | %6llu %9llu | %8.1f %8.1f %8.1f | %10llu | %5llu %5llu%s\n",
        static_cast<unsigned long long>(cadence),
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.reclaimed), s.mean_pending,
        s.mean_detect, s.mean_full,
        static_cast<unsigned long long>(s.cdm_weight),
        static_cast<unsigned long long>(s.leftover),
        static_cast<unsigned long long>(s.audit_errors),
        s.cycles == 0 || !clean ? "  (!)" : "");
  }
  std::printf("  (ledger means in steps: pending = unlink -> detection "
              "start, detect = CDM critical path, full = unlink -> "
              "reclaimed; rarer detection defers reclaim onto pending wait, "
              "denser detection spends CDM bytes re-proving live strands)\n");

  std::printf("\nAblation 5 — the background GcDaemon alone\n");
  std::printf("%6s %9s | %8s %8s %8s | %10s %10s %10s | %6s %6s %8s "
              "| %5s %5s\n",
              "cycles", "reclaimed", "mean e2e", "p90 e2e", "wave lag",
              "cdm bytes", "snap bytes", "bytes/cyc", "sweeps", "colls",
              "skipped", "left", "errs");
  const DaemonScore s = run_daemon();
  safe = safe && s.leftover == 0 && s.audit_errors == 0;
  std::printf("%6llu %9llu | %8.1f %8llu %8.1f | %10llu %10llu %10.0f "
              "| %6llu %6llu %8llu | %5llu %5llu%s\n",
              static_cast<unsigned long long>(s.cycles),
              static_cast<unsigned long long>(s.reclaimed), s.mean_e2e,
              static_cast<unsigned long long>(s.p90_e2e), s.wave_lag,
              static_cast<unsigned long long>(s.cdm_bytes),
              static_cast<unsigned long long>(s.snapshot_bytes),
              s.bytes_per_cycle(), static_cast<unsigned long long>(s.sweeps),
              static_cast<unsigned long long>(s.collections),
              static_cast<unsigned long long>(s.skipped),
              static_cast<unsigned long long>(s.leftover),
              static_cast<unsigned long long>(s.audit_errors),
              s.leftover == 0 && s.audit_errors == 0 ? "" : "  (!)");
  if (!safe) {
    std::printf("FAIL: a safety or completeness claim above does not hold\n");
    return 1;
  }
  return 0;
}
