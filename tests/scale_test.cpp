// Scale smoke tests (`ctest -L scale`): ~100k-object populations through
// the arena heap, the image codec, a full collection round and
// the discrete-event scheduler — small enough for the sanitizer legs of
// scripts/check.sh, big enough to catch O(n^2) regressions and slot/index
// bookkeeping bugs that toy graphs never tickle.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "gc/cycle/snapshot_io.h"
#include "rm/image.h"
#include "rm/process.h"

namespace rgc {
namespace {

constexpr std::uint64_t kObjects = 100000;
constexpr std::uint64_t kChain = 50;

/// Rooted chains of kChain objects on every process, kObjects total.
std::vector<ProcessId> build_chains(core::Cluster& cluster,
                                    std::size_t processes) {
  std::vector<ProcessId> pids;
  for (std::size_t i = 0; i < processes; ++i) {
    pids.push_back(cluster.add_process());
  }
  const std::uint64_t per_process = kObjects / processes;
  for (const ProcessId pid : pids) {
    ObjectId prev{};
    for (std::uint64_t i = 0; i < per_process; ++i) {
      const ObjectId obj = cluster.new_object(pid);
      if (i % kChain == 0) {
        cluster.add_root(pid, obj);
      } else {
        cluster.add_ref(pid, prev, obj);
      }
      prev = obj;
    }
  }
  return pids;
}

TEST(Scale, ImageRoundTripsHundredThousandObjects) {
  core::Cluster cluster;
  const std::vector<ProcessId> pids = build_chains(cluster, 1);
  rm::Process& proc = cluster.process(pids[0]);
  ASSERT_GE(proc.heap().size(), kObjects);

  const rm::ProcessImage image = proc.capture_image(cluster.now());
  EXPECT_EQ(image.objects.size(), proc.heap().size());
  const std::string bytes = gc::encode_image(image);
  const auto decoded = gc::decode_image(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->objects.size(), image.objects.size());
  // capture_image iterates the arena in id order, so equality is
  // positional — and proves the codec at six figures, not toy sizes.
  for (std::size_t i = 0; i < image.objects.size(); i += 9973) {
    EXPECT_EQ(decoded->objects[i].id, image.objects[i].id);
    EXPECT_EQ(decoded->objects[i].refs, image.objects[i].refs);
  }
  EXPECT_EQ(decoded->roots, image.roots);
}

TEST(Scale, ClusterSmokeCollectAdvanceAudit) {
  core::ClusterConfig cfg;
  cfg.lease_timeout = 48;
  core::Cluster cluster{cfg};
  const std::vector<ProcessId> pids = build_chains(cluster, 8);

  // Cross-process ring so the audit sees real scion/prop state.
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const ObjectId shared = cluster.new_object(pids[i]);
    cluster.add_root(pids[i], shared);
    cluster.propagate(shared, pids[i], pids[(i + 1) % pids.size()]);
  }
  cluster.run_until_quiescent();

  // Everything is rooted: a full collection round reclaims nothing.
  cluster.collect_all();
  cluster.run_until_quiescent();
  std::uint64_t reclaimed = 0;
  for (const ProcessId pid : pids) {
    reclaimed += cluster.process(pid).metrics().get("lgc.reclaimed");
  }
  EXPECT_EQ(reclaimed, 0u);
  EXPECT_GE(cluster.total_objects(), kObjects);

  // Event-skip across an idle stretch, then a deep audit: no findings, and
  // the heap gauges reflect the arena.
  cluster.advance(5000);
  const obs::HealthReport& report = cluster.audit();
  EXPECT_EQ(report.errors(), 0u);
  for (const ProcessId pid : pids) {
    const rm::Process& proc = cluster.process(pid);
    EXPECT_EQ(proc.metrics().gauge_value("process.heap_slab_bytes"),
              proc.heap().slab_bytes());
    EXPECT_EQ(proc.metrics().gauge_value("process.heap_live_fraction"),
              proc.heap().live_percent());
  }
}

}  // namespace
}  // namespace rgc
