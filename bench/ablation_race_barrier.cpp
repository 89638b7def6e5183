// Ablation — the optimistic race barrier (§3.5) under increasing mutator
// pressure.
//
// The Figure 4/5 scenario generalized: a live replicated cycle, snapshots
// taken at staggered times, with `k` mutator operations (invocations and
// coherence updates) landing between them.  The barrier's contract:
//
//   - safety is absolute: no detection may ever condemn the live cycle,
//     at any mutation rate;
//   - the cost of optimism is wasted detections: the abort rate rises
//     with mutator activity ("the application runs at full speed at the
//     expense of possibly wasting some detection work").
//
// A second table shows the recovery property: the same graphs, once the
// mutator stops and the root is removed, are collected on the next
// attempt with fresh snapshots.
#include <cstdio>

#include "core/cluster.h"
#include "core/oracle.h"
#include "workload/figures.h"

namespace {

using namespace rgc;

struct Trial {
  bool condemned{false};  // live data harmed (must never happen)
  bool aborted{false};    // detection gave up (expected under races)
  bool recovered{false};  // post-quiescence retry collected the dead cycle
};

Trial run_trial(int mutations, std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.net.seed = seed;
  core::Cluster cluster{cfg};
  const auto fig = workload::build_figure4(cluster);  // live cycle

  // Stale snapshots first (everyone but P1), paper's timeline.
  cluster.snapshot(fig.p2);
  cluster.snapshot(fig.p3);
  cluster.snapshot(fig.p4);

  // Mutator burst in the snapshot gap.
  for (int i = 0; i < mutations; ++i) {
    switch (i % 3) {
      case 0:
        cluster.invoke(fig.p3, fig.x);
        break;
      case 1:
        cluster.invoke(fig.p2, fig.y);
        break;
      case 2:
        cluster.propagate(fig.y, fig.p4, fig.p3);
        break;
    }
    cluster.run_until_quiescent();
  }
  for (int i = 0; i < 4; ++i) cluster.step();  // invocation pins expire

  cluster.remove_root(fig.p1, fig.x);  // by S1, the cycle LOOKS dead at P1
  cluster.snapshot(fig.p1);

  cluster.detector(fig.p2).start_detection(fig.x);
  cluster.detector(fig.p1).start_detection(fig.x);
  cluster.run_until_quiescent();

  Trial t;
  const auto report = core::Oracle::analyze(cluster);
  // The root is gone, so x/y genuinely died; "condemned" here means a cut
  // was applied by a detection that raced the mutations (it would also
  // fire on the pre-removal state — the unsafe outcome the barrier
  // exists to prevent).  With mutations > 0 every verdict must have been
  // blocked by a counter mismatch.
  t.condemned = mutations > 0 && !cluster.cycles_found().empty();
  t.aborted = cluster.metric_total("cycle.aborts_race") > 0;
  (void)report;

  // Recovery: fresh snapshots over the now-quiet graph.
  cluster.snapshot_all();
  cluster.detect(fig.p1, fig.x);
  cluster.run_until_quiescent();
  cluster.run_full_gc(8);
  t.recovered = !cluster.process(fig.p1).has_replica(fig.x) &&
                !cluster.process(fig.p4).has_replica(fig.y);
  return t;
}

}  // namespace

int main() {
  std::printf(
      "Ablation — optimistic race barrier vs mutator activity\n"
      "(Figure 4/5 scenario; %d seeds per mutation rate)\n\n",
      5);
  std::printf("%10s %12s %12s %12s\n", "mutations", "condemned",
              "races-hit", "recovered");
  for (const int mutations : {0, 1, 2, 4, 8, 16}) {
    int condemned = 0, aborted = 0, recovered = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Trial t = run_trial(mutations, seed);
      condemned += t.condemned ? 1 : 0;
      aborted += t.aborted ? 1 : 0;
      recovered += t.recovered ? 1 : 0;
    }
    std::printf("%10d %11d/5 %11d/5 %11d/5%s\n", mutations, condemned, aborted,
                recovered, condemned == 0 ? "" : "  UNSAFE!");
  }
  std::printf(
      "\nexpected: condemned always 0/5 (safety), races-hit rising with\n"
      "mutations (optimism's cost), recovered always 5/5 (liveness).\n");
  return 0;
}
