// CDM trace — replays the paper's worked example (§3.3, Figure 2) with
// protocol logging on, so you can watch the algebra travel:
//
//   P1: Alg0 => {{}, {X_P1}} -> {}        (candidate seeded)
//   P1 -> P2 (forward to child replica X'_P2)
//   P2 -> P4 (reference X'_P2 -> Y_P4)
//   P4 -> P3 (forward to child replica Y'_P3)
//   P3 -> P1 (reference Y'_P3 -> X_P1)
//   P1: matching -> {{}, {}} -> {}        (cycle found, scion cut)
//
//   $ ./example_cdm_trace
#include <cstdio>

#include "core/cluster.h"
#include "util/log.h"
#include "workload/figures.h"

using namespace rgc;

int main() {
  core::Cluster cluster;
  const auto fig = workload::build_figure2(cluster);

  std::printf("Figure 2 built: X replicated P%u->P%u, Y replicated P%u->P%u\n",
              raw(fig.p1), raw(fig.p2), raw(fig.p4), raw(fig.p3));
  std::printf("references: X'@P%u -> Y@P%u and Y'@P%u -> X@P%u\n",
              raw(fig.p2), raw(fig.p4), raw(fig.p3), raw(fig.p1));
  std::printf("nothing rooted: the four replicas form a garbage cycle\n\n");

  // Snapshots are taken independently, with no coordination (§3.5).
  cluster.snapshot_all();

  // Watch the protocol: every CDM delivery and the final verdict.
  util::set_log_level(util::LogLevel::kDebug);
  std::printf("--- detection starts at X@P%u ---\n", raw(fig.p1));
  const auto id = cluster.detect(fig.p1, fig.x);
  if (!id.has_value()) {
    std::printf("detection refused to start!\n");
    return 1;
  }
  const std::uint64_t steps = cluster.run_until_quiescent().steps;
  util::set_log_level(util::LogLevel::kOff);

  if (cluster.cycles_found().empty()) {
    std::printf("no cycle found!\n");
    return 1;
  }
  const gc::Cdm& verdict = cluster.cycles_found().front();
  std::printf("\ncycle proven after %llu steps, %llu CDMs\n",
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(
                  cluster.network().total_sent("CDM")));
  std::printf("final algebra: %s\n", verdict.to_string().c_str());

  // The verdict instructed the acyclic GC to delete the candidate's scion
  // ("it is enough ... to delete the scion of C_P1 which will result in
  // the safe collection of the whole cycle of garbage").
  for (int i = 0; i < 8; ++i) {
    cluster.collect_all();
    cluster.run_until_quiescent();
  }
  std::printf("after acyclic rounds: %llu replicas remain (expected 0)\n",
              static_cast<unsigned long long>(cluster.total_objects()));
  return cluster.total_objects() == 0 ? 0 : 1;
}
