// Figure 8 — Number of CDMs per simulation step (replication factor 4,
// 10 dependencies between replica nodes), replication-aware detector vs
// the modified replication-blind baseline [23].
//
// The paper's claims reproduced here:
//  - "Both algorithms identify the cycle after [the same number of]
//    simulation steps."
//  - "our approach uses less CDMs through the cycle detection process"
//  - "our solution stops traversing the network sooner"
//
// Counts come from the deterministic simulator, not from timing, so this
// binary prints the series directly (google-benchmark's adaptive
// iteration machinery has nothing to measure here).  Exits 1 when either
// claim fails to reproduce.
#include <cstdio>
#include <vector>

#include "core/cluster.h"
#include "workload/mesh.h"

namespace {

using namespace rgc;

struct Run {
  std::vector<std::uint64_t> per_step;  // CDMs *sent* during each step
  std::uint64_t detect_step{0};
  std::uint64_t total{0};
};

Run run_detection(core::DetectorMode mode, std::size_t R, std::size_t D) {
  core::ClusterConfig cfg;
  cfg.mode = mode;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(cluster, {R, D});
  cluster.snapshot_all();

  const std::uint64_t start = cluster.now();
  cluster.detect(mesh.head_process, mesh.head);
  while (cluster.cycles_found().empty() && !cluster.network().idle()) {
    cluster.step();
  }
  const std::uint64_t found_at = cluster.now();
  // Drain stragglers so the totals cover the whole detection.
  cluster.run_until_quiescent();

  Run run;
  run.detect_step = found_at - start;
  for (std::uint64_t s = start; s <= cluster.now(); ++s) {
    run.per_step.push_back(cluster.network().sent_at_step("CDM", s));
    run.total += run.per_step.back();
  }
  return run;
}

}  // namespace

int main() {
  constexpr std::size_t kR = 4;
  constexpr std::size_t kD = 10;
  std::printf(
      "Figure 8 — CDMs per simulation step (replication factor %zu, "
      "%zu dependencies)\n\n",
      kR, kD);

  const Run ours = run_detection(core::DetectorMode::kReplicationAware, kR, kD);
  const Run base = run_detection(core::DetectorMode::kBaseline, kR, kD);

  const std::size_t span = std::max(ours.per_step.size(), base.per_step.size());
  std::printf("%6s %12s %12s\n", "step", "ours", "baseline");
  for (std::size_t s = 0; s < span; ++s) {
    const std::uint64_t o = s < ours.per_step.size() ? ours.per_step[s] : 0;
    const std::uint64_t b = s < base.per_step.size() ? base.per_step[s] : 0;
    if (o == 0 && b == 0) continue;
    std::printf("%6zu %12llu %12llu\n", s, static_cast<unsigned long long>(o),
                static_cast<unsigned long long>(b));
  }
  std::printf("\n%-34s %12s %12s\n", "", "ours", "baseline");
  std::printf("%-34s %12llu %12llu\n", "cycle detected at step",
              static_cast<unsigned long long>(ours.detect_step),
              static_cast<unsigned long long>(base.detect_step));
  std::printf("%-34s %12llu %12llu\n", "total CDMs issued",
              static_cast<unsigned long long>(ours.total),
              static_cast<unsigned long long>(base.total));

  const bool same_step = ours.detect_step <= base.detect_step + 1 &&
                         base.detect_step <= ours.detect_step + 1;
  const bool fewer = ours.total < base.total;
  std::printf(
      "\npaper: both detect at the same step; ours issues fewer CDMs.\n"
      "reproduced: same step (+-1) = %s, fewer CDMs = %s (%.2fx)\n",
      same_step ? "yes" : "NO", fewer ? "yes" : "NO",
      static_cast<double>(base.total) / static_cast<double>(ours.total));
  return same_step && fewer ? 0 : 1;
}
