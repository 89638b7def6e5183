// Differential tests for the one-pass SCC summarizer: gc::summarize must
// produce bit-for-bit the same ProcessSummary as the per-seed reference
// implementation (summary_reference.h) on randomized
// mutator/coherence histories, and a snapshot must keep the detector's
// installed summary exactly when nothing summary-relevant changed.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "core/cluster.h"
#include "gc/cycle/cdm.h"
#include "gc/cycle/summary.h"
#include "summary_reference.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc::gc {
namespace {

using core::Cluster;
using core::ClusterConfig;

/// Both implementations, every process, structural equality.
void expect_identical_summaries(Cluster& cluster, const char* context) {
  for (ProcessId pid : cluster.process_ids()) {
    const rm::Process& proc = cluster.process(pid);
    const ProcessSummary fast = summarize(proc);
    const ProcessSummary ref = summarize_reference(proc);
    ASSERT_EQ(fast, ref) << context << ": summary mismatch on "
                         << to_string(pid);
  }
}

/// Random mutator/coherence history: every operation the model allows,
/// drawn with guards so each pick is legal, interleaved with message
/// delivery and collections.  The driver only tracks the object-id pool;
/// legality is checked against live process state.
void drive_random_history(Cluster& cluster, std::uint32_t seed,
                          int operations) {
  std::mt19937 rng{seed};
  const std::vector<ProcessId> pids = cluster.process_ids();
  std::vector<ObjectId> pool;

  const auto pick_pid = [&] {
    return pids[rng() % pids.size()];
  };
  // A uniformly random element of `xs`, or kNoObject when empty.
  const auto pick = [&](const std::vector<ObjectId>& xs) {
    return xs.empty() ? kNoObject : xs[rng() % xs.size()];
  };
  const auto local_objects = [&](ProcessId p) {
    std::vector<ObjectId> out;
    for (ObjectId obj : pool) {
      if (cluster.process(p).heap().contains(obj)) out.push_back(obj);
    }
    return out;
  };

  for (int op = 0; op < operations; ++op) {
    const ProcessId p = pick_pid();
    const rm::Process& proc = cluster.process(p);
    switch (rng() % 12) {
      case 0:
        pool.push_back(cluster.new_object(p));
        break;
      case 1: {  // root anything resolvable (replica or stubbed remote)
        std::vector<ObjectId> known;
        for (ObjectId obj : pool) {
          if (proc.knows(obj)) known.push_back(obj);
        }
        if (const ObjectId obj = pick(known); obj != kNoObject) {
          cluster.add_root(p, obj);
        }
        break;
      }
      case 2: {
        const auto& roots = proc.heap().roots();
        if (!roots.empty()) {
          auto it = roots.begin();
          std::advance(it, rng() % roots.size());
          cluster.remove_root(p, *it);
        }
        break;
      }
      case 3: {  // local or stub-resolved reference assignment
        const ObjectId from = pick(local_objects(p));
        if (from == kNoObject) break;
        std::vector<ObjectId> known;
        for (ObjectId obj : pool) {
          if (proc.knows(obj)) known.push_back(obj);
        }
        if (const ObjectId to = pick(known); to != kNoObject) {
          cluster.add_ref(p, from, to);
        }
        break;
      }
      case 4: {
        const ObjectId from = pick(local_objects(p));
        if (from == kNoObject) break;
        const rm::Object* obj = proc.heap().find(from);
        if (obj == nullptr || obj->refs.empty()) break;
        cluster.remove_ref(p, from, obj->refs[rng() % obj->refs.size()].target);
        break;
      }
      case 5: {  // replicate onto a random other process
        if (pids.size() < 2) break;
        const ObjectId obj = pick(local_objects(p));
        if (obj == kNoObject) break;
        ProcessId to = pick_pid();
        if (to == p) break;
        cluster.propagate(obj, p, to);
        break;
      }
      case 6: {  // courier-built remote reference
        if (pids.size() < 2) break;
        const ProcessId q = pick_pid();
        if (q == p) break;
        const ObjectId from = pick(local_objects(p));
        const ObjectId to = pick(local_objects(q));
        if (from == kNoObject || to == kNoObject) break;
        pool.push_back(workload::make_remote_ref(cluster, p, from, q, to));
        break;
      }
      case 7: {  // invoke through a random stub (IC/SSP traffic)
        std::vector<rm::StubKey> keys;
        for (const auto& [key, stub] : proc.stubs()) keys.push_back(key);
        if (!keys.empty()) {
          cluster.invoke(p, keys[rng() % keys.size()].target);
        }
        break;
      }
      case 8:
        cluster.step();
        break;
      case 9:
        cluster.run_until_quiescent();
        break;
      case 10:
        cluster.collect(p);
        break;
      default:
        cluster.collect_all();
        break;
    }
  }
  cluster.run_until_quiescent();
}

TEST(SummaryDiff, RandomHistoriesAcrossSeeds) {
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u, 90210u, 424242u}) {
    ClusterConfig cfg;
    cfg.net.seed = seed;
    Cluster cluster{cfg};
    const std::size_t procs = 2 + seed % 4;
    for (std::size_t i = 0; i < procs; ++i) cluster.add_process();

    // Compare at several points along the history, not only at the end:
    // mid-flight propagations, undelivered invokes and half-collected
    // garbage are exactly the states a background summarizer sees.
    for (int leg = 0; leg < 6; ++leg) {
      drive_random_history(cluster, seed * 31 + leg, 60);
      expect_identical_summaries(cluster, "random history");
    }
  }
}

/// One process holding a fully cyclic strided mesh (object i references
/// i+1, i+7, i+31 and i+107 mod n: one giant SCC, so the condensation gets
/// no help from trivial components) plus an evenly spread band of scions,
/// stubs and replicas: the seed-dense shape where the reference's
/// per-seed traces and the one-pass bitsets differ most in how they work.
void build_strided_mesh_with_band(Cluster& cluster) {
  constexpr std::uint64_t kObjects = 2000;
  constexpr std::uint64_t kBand = 40;  // scions, stubs and replicas each
  static constexpr std::uint64_t kStrides[] = {1, 7, 31, 107};

  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  std::vector<ObjectId> mesh;
  mesh.reserve(kObjects);
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    mesh.push_back(cluster.new_object(p0));
  }
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    rm::Object* obj = cluster.process(p0).heap().find(mesh[i]);
    for (std::uint64_t s : kStrides) {
      obj->refs.push_back(rm::Ref{mesh[(i + s) % kObjects], kNoProcess});
    }
  }
  cluster.add_root(p0, mesh[0]);

  const std::uint64_t spread = kObjects / kBand;
  for (std::uint64_t k = 0; k < kBand; ++k) {
    const ObjectId at = mesh[k * spread];
    // Replica: a mesh object propagated out (in/out props on p0).
    cluster.propagate(at, p0, p1);
    // Stub: a p1-owned object remote-referenced from the mesh.
    const ObjectId remote = cluster.new_object(p1);
    cluster.add_root(p1, remote);
    workload::make_remote_ref(cluster, p0, at, p1, remote);
    // Scion: a p1 holder remote-referencing into the mesh.
    workload::make_remote_ref(cluster, p1, remote, p0, mesh[k * spread + 1]);
  }
  cluster.run_until_quiescent();
}

TEST(SummaryDiff, MeshAndFigureTopologies) {
  {
    Cluster cluster;
    workload::build_mesh(cluster,
                         {.processes = 5, .dependencies = 7, .extra_replicas = 2});
    expect_identical_summaries(cluster, "mesh");
  }
  {
    Cluster cluster;
    workload::build_figure2(cluster);
    expect_identical_summaries(cluster, "figure 2");
  }
  {
    Cluster cluster;
    build_strided_mesh_with_band(cluster);
    expect_identical_summaries(cluster, "strided mesh with band");
  }
}

// ---- dirty-epoch incremental reuse ----------------------------------------

TEST(SummaryDiff, EpochBumpsOnSummaryRelevantMutations) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  rm::Process& proc = cluster.process(p1);

  std::uint64_t before = proc.mutation_epoch();
  const ObjectId a = cluster.new_object(p1);
  EXPECT_GT(proc.mutation_epoch(), before) << "create_object must bump";

  before = proc.mutation_epoch();
  cluster.add_root(p1, a);
  EXPECT_GT(proc.mutation_epoch(), before) << "add_root must bump";

  before = proc.mutation_epoch();
  cluster.propagate(a, p1, p2);
  EXPECT_GT(proc.mutation_epoch(), before) << "propagate must bump (UC)";

  const std::uint64_t remote_before = cluster.process(p2).mutation_epoch();
  cluster.run_until_quiescent();
  EXPECT_GT(cluster.process(p2).mutation_epoch(), remote_before)
      << "delivered propagation must bump the receiver";

  // Steps with no deliveries and no expiring roots leave epochs alone.
  before = proc.mutation_epoch();
  cluster.step();
  cluster.step();
  EXPECT_EQ(proc.mutation_epoch(), before);
}

TEST(SummaryDiff, SnapshotAllReusesQuiescentSummaries) {
  Cluster cluster;
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  const ObjectId a = cluster.new_object(p1);
  cluster.add_root(p1, a);
  cluster.propagate(a, p1, p2);
  cluster.run_until_quiescent();

  cluster.snapshot_all();
  const std::uint64_t reused0 = cluster.metric_total("cycle.summarize_reused");
  const auto dirty0 =
      cluster.network().metrics().gauge_value("cycle.summary_dirty_fraction");
  EXPECT_EQ(dirty0, 100u) << "first snapshot round summarizes everything";

  // Nothing changed: the second round must reuse both summaries verbatim.
  cluster.snapshot_all();
  EXPECT_EQ(cluster.metric_total("cycle.summarize_reused"), reused0 + 2);
  EXPECT_EQ(
      cluster.network().metrics().gauge_value("cycle.summary_dirty_fraction"),
      0u);
  EXPECT_EQ(cluster.detector(p1).summary(), summarize(cluster.process(p1)))
      << "a reused summary must equal what a fresh summarization would give";

  // Mutating one process re-summarizes exactly that one.
  cluster.remove_root(p1, a);
  cluster.snapshot_all();
  EXPECT_EQ(cluster.metric_total("cycle.summarize_reused"), reused0 + 3);
  EXPECT_EQ(
      cluster.network().metrics().gauge_value("cycle.summary_dirty_fraction"),
      50u);
  EXPECT_FALSE(cluster.detector(p1).summary().replicas.at(a).local_reach);
}

TEST(SummaryDiff, RestartedProcessSummarizesFresh) {
  // The detector holds a process's only summary and a restart builds a new
  // detector, so the first snapshot after it summarizes the restored
  // process — even when the restore lands on the very epoch the pre-kill
  // summary captured (an image restores at its persist epoch + 1).
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  const ProcessId q = cluster.add_process();
  const ObjectId x = cluster.new_object(q);
  // p holds a child replica, so its restart re-propagates nothing.
  cluster.propagate(x, q, p);
  cluster.run_until_quiescent();
  // Two epochs of no net change, so the image's epoch, not the rebuild's
  // own mutations, decides where the restore resumes.
  cluster.add_root(p, x);
  cluster.remove_root(p, x);
  cluster.persist(p);  // x unrooted in the image
  cluster.add_root(p, x);
  cluster.snapshot(p);
  const std::uint64_t killed_epoch =
      cluster.detector(p).summary().mutation_epoch;
  ASSERT_TRUE(cluster.detector(p).summary().replicas.at(x).local_reach);

  cluster.kill(p);
  ASSERT_TRUE(cluster.restart(p));
  ASSERT_EQ(cluster.process(p).mutation_epoch(), killed_epoch);
  const std::uint64_t reused = cluster.metric_total("cycle.summarize_reused");
  cluster.snapshot(p);
  EXPECT_EQ(cluster.metric_total("cycle.summarize_reused"), reused);
  EXPECT_EQ(cluster.detector(p).summary(), summarize(cluster.process(p)));
  EXPECT_FALSE(cluster.detector(p).summary().replicas.at(x).local_reach);
}

TEST(SummaryDiff, ReusedSnapshotClearsTheSubsumptionFilter) {
  // A reused summary is still a new snapshot: the detector forgets the
  // target sets it processed per (detection, entry), so a CDM of the same
  // detection arriving again after it is examined, not dropped as subsumed.
  struct Tap : net::Network::Observer {
    std::optional<CdmMsg> cdm;
    void on_send(const net::Envelope& env) override {
      const auto* msg = dynamic_cast<const CdmMsg*>(env.msg);
      if (msg != nullptr && !cdm.has_value()) cdm = *msg;
    }
  } tap;  // outlives the cluster it observes
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  const ProcessId q = cluster.add_process();
  const ObjectId x = cluster.new_object(p);
  cluster.propagate(x, p, q);
  cluster.run_until_quiescent();
  cluster.snapshot_all();

  // q's detection of the unrooted x forwards its CDM to the parent p.
  cluster.network().add_observer(&tap);
  ASSERT_TRUE(cluster.detect(q, x).has_value());
  ASSERT_TRUE(tap.cdm.has_value());
  const auto deliver = [&] {
    CdmMsg msg = *tap.cdm;  // on_cdm takes the payload
    const net::Envelope env{q, p, 1, cluster.now(), &msg};
    cluster.detector(p).on_cdm(env, msg);
  };
  const util::Metrics& metrics = cluster.process(p).metrics();
  const std::uint64_t subsumed = metrics.get("cycle.drops_subsumed");
  deliver();
  EXPECT_EQ(metrics.get("cycle.drops_subsumed"), subsumed);
  deliver();  // same snapshot: the filter drops the repeat
  ASSERT_EQ(metrics.get("cycle.drops_subsumed"), subsumed + 1);

  const std::uint64_t reused = cluster.metric_total("cycle.summarize_reused");
  cluster.snapshot(p);
  ASSERT_EQ(cluster.metric_total("cycle.summarize_reused"), reused + 1);
  EXPECT_EQ(metrics.get("cycle.snapshots"), 2u);
  deliver();
  EXPECT_EQ(metrics.get("cycle.drops_subsumed"), subsumed + 1);
}

}  // namespace
}  // namespace rgc::gc
