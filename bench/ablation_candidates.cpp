// Ablation — candidate-selection policies (§3.1 defers the heuristic to
// the literature [14]; this bench quantifies the choice).
//
// Workload: a mixed store — live data referenced only remotely (the
// exhaustive policy's blind spot: it looks unreachable locally, forever),
// freshly-dropped acyclic garbage, and replicated cycles.  Metrics per
// policy: detections started (wasted + useful), CDMs spent, rounds until
// clean, and whether everything dead was reclaimed.
//
// Exits 1 unless every policy ends clean with live data intact and the
// distance heuristic starts fewer detections than the exhaustive sweep.
#include <cstdio>

#include "core/cluster.h"
#include "core/oracle.h"
#include "workload/figures.h"

namespace {

using namespace rgc;
using core::CandidatePolicy;

struct Outcome {
  std::uint64_t detections{0};
  std::uint64_t cdms{0};
  std::uint64_t rounds{0};
  bool clean{false};
  bool live_intact{false};
};

Outcome run_policy(CandidatePolicy policy) {
  core::ClusterConfig cfg;
  cfg.candidates = policy;
  cfg.candidate_threshold = 3;
  core::Cluster cluster{cfg};

  // Cycle garbage (the figure-2 four-replica cycle).
  const auto f = workload::build_figure2(cluster);

  // Live data referenced only remotely: w (rooted on p4) -> v (on p1).
  const ObjectId v = cluster.new_object(f.p1);
  const ObjectId w = cluster.new_object(f.p4);
  cluster.add_root(f.p4, w);
  cluster.add_root(f.p1, v);
  workload::make_remote_ref(cluster, f.p4, w, f.p1, v);
  cluster.remove_root(f.p1, v);

  // Fresh acyclic garbage chain across processes.
  const ObjectId c0 = cluster.new_object(f.p2);
  const ObjectId c1 = cluster.new_object(f.p3);
  cluster.add_root(f.p2, c0);
  workload::make_remote_ref(cluster, f.p2, c0, f.p3, c1);
  cluster.remove_root(f.p2, c0);

  const auto stats = cluster.run_full_gc();
  const auto report = core::Oracle::analyze(cluster);

  Outcome out;
  out.detections = stats.detections_started;
  out.cdms = cluster.network().total_sent("CDM");
  out.rounds = stats.rounds;
  out.clean = report.garbage_objects().empty();
  out.live_intact = cluster.process(f.p1).has_replica(v) &&
                    report.violations.empty();
  return out;
}

void print_row(const char* name, const Outcome& o) {
  std::printf("%-14s %11llu %8llu %8llu %7s %12s\n", name,
              static_cast<unsigned long long>(o.detections),
              static_cast<unsigned long long>(o.cdms),
              static_cast<unsigned long long>(o.rounds),
              o.clean ? "yes" : "NO", o.live_intact ? "yes" : "NO");
}

}  // namespace

int main() {
  std::printf(
      "Ablation — candidate-selection policy on a mixed store\n"
      "(cycle garbage + acyclic garbage + live remotely-referenced data)\n\n");
  std::printf("%-14s %11s %8s %8s %7s %12s\n", "policy", "detections",
              "cdms", "rounds", "clean", "live-intact");
  const Outcome exhaustive = run_policy(CandidatePolicy::kExhaustive);
  const Outcome distance = run_policy(CandidatePolicy::kDistance);
  print_row("exhaustive", exhaustive);
  print_row("distance", distance);
  const bool ok = exhaustive.clean && exhaustive.live_intact &&
                  distance.clean && distance.live_intact &&
                  distance.detections < exhaustive.detections;
  std::printf(
      "\nexpected: both policies end clean with live data intact, and the\n"
      "distance heuristic starts fewer detections than the exhaustive sweep\n"
      "(it alone learns that the remotely-referenced live object is live),\n"
      "at the price of threshold-many warm-up rounds: %s\n",
      ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
