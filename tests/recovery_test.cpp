// Crash/recovery fault-tolerance tests (docs/FAULTS.md): process kill +
// restart-from-snapshot round-trips, lease/timeout scion reclamation
// boundaries, the reconciliation protocol (Recover / Rebind / RebindNack /
// PropSync), partition loss semantics, and the invariants Cluster::audit()
// checks on fault-shaped state, all against the omniscient core::Oracle.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/cluster.h"
#include "core/daemon.h"
#include "core/oracle.h"
#include "obs/check.h"
#include "workload/fault_plan.h"
#include "workload/figures.h"

namespace rgc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::Oracle;

ClusterConfig leased_config(std::uint64_t timeout) {
  ClusterConfig cfg;
  cfg.lease_timeout = timeout;
  cfg.heartbeat_interval = 1;  // exact lease arithmetic in tests
  return cfg;
}

/// x@p0 --ref--> y@p1, x rooted: leaves a stub {y,p1} at p0 and the scion
/// {p0,y} at p1, construction couriers settled away.
struct RemoteRefWorld {
  ProcessId p0, p1;
  ObjectId x, y;
};

RemoteRefWorld build_remote_ref(Cluster& cluster) {
  RemoteRefWorld w;
  w.p0 = cluster.add_process();
  w.p1 = cluster.add_process();
  w.x = cluster.new_object(w.p0);
  w.y = cluster.new_object(w.p1);
  cluster.add_root(w.p0, w.x);
  workload::make_remote_ref(cluster, w.p0, w.x, w.p1, w.y);
  workload::settle(cluster);
  return w;
}

// ---- Crash basics ----------------------------------------------------------

TEST(Kill, PurgesInFlightTrafficAndStillQuiesces) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.propagate(x, p0, p1);  // in flight toward p1
  ASSERT_GT(cluster.network().in_flight(), 0u);

  cluster.kill(p1);
  // Regression: a crashed process must not count as pending work forever.
  const auto status = cluster.run_until_quiescent(50);
  EXPECT_TRUE(status.quiescent);
  EXPECT_EQ(status.in_flight, 0u);
  EXPECT_EQ(status.dead, 1u);
}

TEST(Kill, GuardsAndTopologyExclusion) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  EXPECT_THROW(cluster.kill(ProcessId{99}), std::out_of_range);

  cluster.kill(p1);
  EXPECT_THROW(cluster.kill(p1), std::logic_error);
  EXPECT_FALSE(cluster.is_alive(p1));
  EXPECT_TRUE(cluster.is_alive(p0));
  EXPECT_EQ(cluster.process_count(), 1u);
  EXPECT_EQ(cluster.process_ids(), std::vector<ProcessId>{p0});
  EXPECT_EQ(cluster.dead_process_ids(), std::vector<ProcessId>{p1});
  EXPECT_THROW((void)cluster.process(p1), std::out_of_range);
  EXPECT_EQ(cluster.network().metrics().get("cluster.crashes"), 1u);
}

TEST(Kill, SendToDeadProcessIsDroppedAtSource) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.kill(p1);

  cluster.propagate(x, p0, p1);
  EXPECT_EQ(cluster.network().in_flight(), 0u);
  EXPECT_GE(cluster.network().metrics().get("net.dropped.Propagate"), 1u);
}

TEST(Kill, DeadProcessesAreSkippedByCollectionAndFullGc) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  (void)cluster.new_object(p1);
  cluster.add_root(p0, x);
  cluster.kill(p1);

  EXPECT_NO_THROW(cluster.collect_all());
  EXPECT_NO_THROW(cluster.run_full_gc(2));
  EXPECT_THROW(cluster.collect(p1), std::out_of_range);
  // Only live heaps are counted: x survives, p1's object is unobservable.
  EXPECT_EQ(cluster.total_objects(), 1u);
}

// ---- Persist / restart round-trips ----------------------------------------

TEST(Restart, WithoutImageComesBackEmpty) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.add_process();  // keep someone alive

  EXPECT_FALSE(cluster.has_image(p0));
  cluster.kill(p0);
  EXPECT_FALSE(cluster.restart(p0));
  EXPECT_TRUE(cluster.is_alive(p0));
  EXPECT_EQ(cluster.process(p0).heap().size(), 0u);
  EXPECT_EQ(cluster.network().metrics().get("cluster.recoveries"), 1u);
}

TEST(Restart, GuardsOnLiveAndUnknownPids) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  EXPECT_THROW(cluster.restart(p0), std::logic_error);
  EXPECT_THROW(cluster.restart(ProcessId{42}), std::out_of_range);
}

TEST(Restart, SingleProcessRoundTripRestoresHeapAndRoots) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  const ObjectId b = cluster.new_object(p0);
  cluster.add_ref(p0, a, b);
  cluster.add_root(p0, a);

  cluster.persist(p0);
  EXPECT_TRUE(cluster.has_image(p0));
  cluster.kill(p0);
  EXPECT_TRUE(cluster.restart(p0));

  const rm::Process& proc = cluster.process(p0);
  EXPECT_EQ(proc.heap().size(), 2u);
  EXPECT_TRUE(proc.has_replica(a));
  EXPECT_TRUE(proc.has_replica(b));
  EXPECT_TRUE(proc.heap().roots().contains(a));
  const auto report = Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty());
}

TEST(Restart, PairRoundTripKeepsStubScionPairsCoherent) {
  Cluster cluster;
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.persist_all();
  cluster.kill(w.p1);
  EXPECT_TRUE(cluster.restart(w.p1));
  cluster.run_until_quiescent();

  const rm::Process& callee = cluster.process(w.p1);
  EXPECT_TRUE(callee.has_replica(w.y));
  EXPECT_TRUE(callee.scions().contains(rm::ScionKey{w.p0, w.y}));
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

TEST(Restart, FigureTopologyRoundTripStaysCollectable) {
  Cluster cluster;
  const auto fig = workload::build_figure2(cluster);
  cluster.persist_all();
  cluster.kill(fig.p2);
  EXPECT_TRUE(cluster.restart(fig.p2));
  cluster.run_until_quiescent();
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());

  // The replicated garbage cycle must still be detectable and collectable
  // after the round-trip.
  cluster.run_full_gc();
  EXPECT_TRUE(Oracle::analyze(cluster).garbage_objects().empty());
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

TEST(Restart, StaleImageContentIsHealedByReconciliation) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.persist(p1);  // image predates the propagation below

  cluster.propagate(x, p0, p1);
  cluster.run_until_quiescent();
  ASSERT_TRUE(cluster.process(p1).has_replica(x));

  cluster.kill(p1);
  EXPECT_TRUE(cluster.restart(p1));  // old-but-valid image
  EXPECT_FALSE(cluster.process(p1).has_replica(x));
  cluster.run_until_quiescent();
  // p0's reconciliation re-propagated the surviving link.
  EXPECT_TRUE(cluster.process(p1).has_replica(x));
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

TEST(Restart, RebindRecreatesScionLostWithStaleImage) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  const ObjectId y = cluster.new_object(p1);
  cluster.add_root(p0, x);
  cluster.persist(p1);  // before the scion for p0 exists

  workload::make_remote_ref(cluster, p0, x, p1, y);
  workload::settle(cluster);
  ASSERT_TRUE(cluster.process(p1).scions().contains(rm::ScionKey{p0, y}));

  cluster.kill(p1);
  EXPECT_TRUE(cluster.restart(p1));
  EXPECT_FALSE(cluster.process(p1).scions().contains(rm::ScionKey{p0, y}));
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.process(p1).scions().contains(rm::ScionKey{p0, y}));
  EXPECT_GE(cluster.process(p1).metrics().get("rm.scions_rebound"), 1u);
  // The rebound scion keeps anchoring y through a full GC.
  cluster.run_full_gc();
  EXPECT_TRUE(cluster.process(p1).has_replica(y));
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
}

TEST(Restart, RebindNackSeversStubsIntoLostState) {
  Cluster cluster;
  const RemoteRefWorld w = build_remote_ref(cluster);
  // p1 never persisted: its restart loses y entirely.
  cluster.kill(w.p1);
  EXPECT_FALSE(cluster.restart(w.p1));
  cluster.run_until_quiescent();

  EXPECT_GE(cluster.process(w.p1).metrics().get("rm.rebind_nacks_sent"), 1u);
  EXPECT_EQ(cluster.process(w.p0).find_stub(rm::StubKey{w.y, w.p1}), nullptr);
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

// ---- Image validation ------------------------------------------------------

TEST(Restart, CorruptImageIsRejectedNotSilentlyRehydrated) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  cluster.add_root(p0, a);
  cluster.persist(p0);

  std::string bytes = cluster.image(p0);
  bytes[bytes.size() / 2] ^= 0x40;  // bit flip in the payload
  cluster.set_image(p0, bytes);

  cluster.kill(p0);
  EXPECT_FALSE(cluster.restart(p0));  // empty restart, not corrupt state
  EXPECT_EQ(cluster.process(p0).heap().size(), 0u);
  EXPECT_EQ(cluster.network().metrics().get("cluster.restart_image_rejected"),
            1u);
}

TEST(Restart, StaleImageIsRejectedByThePersistEpochGuard) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  cluster.add_root(p0, a);
  cluster.persist(p0);
  const std::string old_image = cluster.image(p0);

  const ObjectId b = cluster.new_object(p0);
  cluster.add_ref(p0, a, b);
  cluster.persist(p0);           // records the newer mutation epoch
  cluster.set_image(p0, old_image);  // ...but an old snapshot got swapped in

  cluster.kill(p0);
  EXPECT_FALSE(cluster.restart(p0));
  EXPECT_EQ(cluster.process(p0).heap().size(), 0u);
  EXPECT_EQ(cluster.network().metrics().get("cluster.restart_image_rejected"),
            1u);
}

TEST(Persist, GuardsAndImageAccess) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  EXPECT_THROW(cluster.persist(ProcessId{7}), std::out_of_range);
  EXPECT_THROW((void)cluster.image(ProcessId{7}), std::out_of_range);
  cluster.persist(p0);
  EXPECT_TRUE(cluster.has_image(p0));
  EXPECT_TRUE(obs::check_image(cluster.image(p0)).empty());
  cluster.add_process();
  cluster.kill(p0);
  EXPECT_THROW(cluster.persist(p0), std::logic_error);
  EXPECT_TRUE(cluster.has_image(p0));  // the image survives the crash
}

// ---- Leases ----------------------------------------------------------------

TEST(Lease, ScionExpiresExactlyAtTheTimeout) {
  Cluster cluster{leased_config(8)};
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.kill(w.p0);
  const std::uint64_t heard = cluster.process(w.p1).last_heard(w.p0);

  // One step short of the boundary: the lease still holds.
  while (cluster.now() + 1 < heard + 8) cluster.step();
  EXPECT_TRUE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));
  EXPECT_EQ(cluster.process(w.p1).metrics().get("gc.lease_expirations"), 0u);

  cluster.step();  // now == heard + timeout: expiry fires
  EXPECT_FALSE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));
  EXPECT_EQ(cluster.process(w.p1).metrics().get("gc.lease_expirations"), 1u);
}

TEST(Lease, HeartbeatsKeepLiveReachablePeersFromExpiring) {
  Cluster cluster{leased_config(6)};
  const RemoteRefWorld w = build_remote_ref(cluster);
  for (int i = 0; i < 40; ++i) cluster.step();
  EXPECT_TRUE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));
  EXPECT_EQ(cluster.process(w.p1).metrics().get("gc.lease_expirations"), 0u);
}

TEST(Lease, DisabledByDefaultADeadOwnerPinsItsScions) {
  Cluster cluster;  // lease_timeout = 0
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.kill(w.p0);
  for (int i = 0; i < 60; ++i) cluster.step();
  EXPECT_TRUE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));
  EXPECT_EQ(cluster.process(w.p1).metrics().get("gc.lease_expirations"), 0u);
}

TEST(Lease, RestartOneStepBeforeExpiryRenewsAndLosesNothing) {
  Cluster cluster{leased_config(8)};
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.persist_all();
  cluster.kill(w.p0);
  const std::uint64_t heard = cluster.process(w.p1).last_heard(w.p0);
  while (cluster.now() + 1 < heard + 8) cluster.step();

  EXPECT_TRUE(cluster.restart(w.p0));
  cluster.run_until_quiescent();
  EXPECT_EQ(cluster.process(w.p1).metrics().get("gc.lease_expirations"), 0u);
  EXPECT_TRUE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));
  EXPECT_TRUE(cluster.process(w.p0).heap().roots().contains(w.x));
  cluster.run_full_gc();
  EXPECT_TRUE(cluster.process(w.p1).has_replica(w.y));  // y stays live
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

TEST(Lease, PermanentlyDeadOwnerFloatingGarbageDrainsToZero) {
  Cluster cluster{leased_config(8)};
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.kill(w.p0);  // never comes back

  for (int i = 0; i < 12; ++i) cluster.step();  // past the lease
  cluster.run_full_gc();
  // Without the lease path y (anchored only by the dead owner's scion)
  // would float forever; with it, the live side drains completely.
  EXPECT_EQ(cluster.total_objects(), 0u);
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

TEST(Lease, RestartAfterExpiryReRegistersAndRebinds) {
  Cluster cluster{leased_config(8)};
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.persist_all();
  cluster.kill(w.p0);
  for (int i = 0; i < 12; ++i) cluster.step();  // lease expired
  ASSERT_FALSE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));

  EXPECT_TRUE(cluster.restart(w.p0));
  cluster.run_until_quiescent();
  // Re-registration + rebind restored the anchor before any further
  // reclamation could act on the returned process's behalf.
  EXPECT_TRUE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));
  cluster.run_full_gc();
  EXPECT_TRUE(cluster.process(w.p1).has_replica(w.y));
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

// ---- Partitions ------------------------------------------------------------

TEST(Partition, CrossGroupTrafficIsDroppedDeterministically) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);

  cluster.partition({{p0}, {p1}});
  EXPECT_TRUE(cluster.partitioned());
  cluster.propagate(x, p0, p1);
  EXPECT_EQ(cluster.network().in_flight(), 0u);
  EXPECT_GE(cluster.network().metrics().get("net.dropped.Propagate"), 1u);
  EXPECT_FALSE(cluster.process(p1).has_replica(x));
}

TEST(Partition, InstallingTheMaskPurgesCrossingInFlightTraffic) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.propagate(x, p0, p1);
  ASSERT_GT(cluster.network().in_flight(), 0u);

  cluster.partition({{p0}, {p1}});
  EXPECT_EQ(cluster.network().in_flight(), 0u);
}

TEST(Partition, HealRedeliversNothing) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.partition({{p0}, {p1}});
  cluster.propagate(x, p0, p1);  // lost

  const std::uint64_t delivered_before =
      cluster.network().metrics().get("net.delivered.Propagate");
  cluster.heal();
  EXPECT_FALSE(cluster.partitioned());
  // Loss semantics: nothing queued, nothing re-delivered by the heal
  // itself (reconciliation sends *new* messages, from this step on).
  EXPECT_EQ(cluster.network().metrics().get("net.delivered.Propagate"),
            delivered_before);
  EXPECT_FALSE(cluster.process(p1).has_replica(x));
}

TEST(Partition, HealReconvergesStubScionStateAcrossTheCut) {
  Cluster cluster{leased_config(6)};
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.partition({{w.p0}, {w.p1}});
  // Long enough that both sides lease-expire each other.
  for (int i = 0; i < 20; ++i) cluster.step();
  ASSERT_FALSE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));

  cluster.heal();
  cluster.run_until_quiescent();
  EXPECT_TRUE(cluster.process(w.p1).scions().contains(rm::ScionKey{w.p0, w.y}));
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

// ---- Crashes during detection ---------------------------------------------

TEST(Detection, CrashMidDetectionIsSafeAndAccounted) {
  Cluster cluster;
  const auto fig = workload::build_figure2(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(fig.p1, fig.x).has_value());
  cluster.step();  // CDMs on the wire
  cluster.kill(fig.p3);

  const auto status = cluster.run_until_quiescent(200);
  EXPECT_TRUE(status.quiescent);
  EXPECT_TRUE(Oracle::analyze(cluster).violations.empty());
  // Banked CDM accounting: no false conservation errors from the crash.
  EXPECT_EQ(cluster.audit().errors(), 0u) << cluster.audit().to_string();
}

// ---- Oracle under faults ---------------------------------------------------

TEST(OracleFaults, ChainsIntoDeadProcessesAreNotViolations) {
  Cluster cluster;
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.kill(w.p1);
  // x (live, rooted) holds a reference resolvable only through the dead
  // p1; the oracle must treat the unobservable side optimistically.
  const auto report = Oracle::analyze(cluster);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.front();
  (void)w;
}

// ---- Consistency checks through Cluster::audit() --------------------------

TEST(Checker, CleanClusterPassesWithRealCoverage) {
  Cluster cluster;
  const RemoteRefWorld w = build_remote_ref(cluster);
  (void)w;
  const obs::HealthReport& report = cluster.audit();
  EXPECT_EQ(report.errors(), 0u) << report.to_string();
  EXPECT_GT(report.checked_refs, 0u);
  EXPECT_GT(report.checked_stubs, 0u);
  EXPECT_GT(report.checked_scions, 0u);
}

TEST(Checker, DetectsAManuallyCorruptedScionTable) {
  Cluster cluster;
  const RemoteRefWorld w = build_remote_ref(cluster);
  // Simulated corruption: the scion vanishes while its stub remains.
  cluster.process(w.p1).scions().erase(rm::ScionKey{w.p0, w.y});
  const obs::HealthReport& report = cluster.audit();
  EXPECT_GE(report.errors(), 1u) << report.to_string();
}

TEST(Checker, DetectsScionsThatOutliveTheirLease) {
  Cluster cluster{leased_config(8)};
  const RemoteRefWorld w = build_remote_ref(cluster);
  cluster.kill(w.p0);
  for (int i = 0; i < 12; ++i) cluster.step();
  // Re-plant an expired-owner scion behind the sweep's back.
  auto& scions = cluster.process(w.p1).scions();
  rm::Scion ghost;
  ghost.key = rm::ScionKey{w.p0, w.y};
  scions.emplace(ghost.key, ghost);
  const obs::HealthReport& report = cluster.audit();
  EXPECT_GE(report.errors(), 1u) << report.to_string();
}

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, RandomPlansAreDeterministicPerSeed) {
  const std::vector<ProcessId> pids{ProcessId{0}, ProcessId{1}, ProcessId{2},
                                    ProcessId{3}};
  workload::FaultPlanSpec spec;
  spec.seed = 77;
  spec.kills = 4;
  spec.partitions = 2;
  const auto a = workload::FaultPlan::random(pids, spec);
  const auto b = workload::FaultPlan::random(pids, spec);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at_step, b.events[i].at_step);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].pid, b.events[i].pid);
  }
  spec.seed = 78;
  const auto c = workload::FaultPlan::random(pids, spec);
  bool differs = a.events.size() != c.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].at_step != c.events[i].at_step ||
              a.events[i].kind != c.events[i].kind ||
              a.events[i].pid != c.events[i].pid;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RunnerGuardsKeepArbitrarySchedulesLegal) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  workload::FaultPlan plan;
  using K = workload::FaultEvent::Kind;
  plan.events = {
      {0, K::kHeal, kNoProcess, {}},       // no partition: skipped
      {0, K::kRestart, p0, {}},            // alive: skipped
      {0, K::kKill, p0, {}},               // applied
      {0, K::kKill, p0, {}},               // already dead: skipped
      {0, K::kKill, p1, {}},               // last live process: skipped
      {0, K::kPersist, p0, {}},            // dead: skipped
      {0, K::kRestart, p0, {}},            // applied
  };
  workload::FaultPlanRunner runner{cluster, plan};
  runner.poll();
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.applied(), 2u);
  EXPECT_EQ(runner.skipped(), 5u);
  EXPECT_TRUE(cluster.is_alive(p0));
  EXPECT_TRUE(cluster.is_alive(p1));
}

TEST(FaultPlan, FinishHealsAndRestartsEverything) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ProcessId p2 = cluster.add_process();
  workload::FaultPlan plan;
  using K = workload::FaultEvent::Kind;
  plan.events = {
      {2, K::kKill, p0, {}},
      {4, K::kPartition, kNoProcess, {{p1}, {p2}}},
  };
  workload::FaultPlanRunner runner{cluster, plan};
  for (int i = 0; i < 6; ++i) {
    cluster.step();
    runner.poll();
  }
  ASSERT_FALSE(cluster.is_alive(p0));
  ASSERT_TRUE(cluster.partitioned());
  runner.finish();
  EXPECT_FALSE(cluster.partitioned());
  EXPECT_TRUE(cluster.is_alive(p0));
  EXPECT_EQ(cluster.dead_process_ids().size(), 0u);
}

}  // namespace
}  // namespace rgc
