// Chaos tests: everything at once — random mutation, the background GC
// daemon, fault injection (loss, duplication, jitter) — with the oracle
// checking safety after every burst and completeness at the end.
//
// The FaultChaos suite layers the crash/recovery fault model on top
// (docs/FAULTS.md): seeded FaultPlans drive kills, restarts-from-snapshot,
// partitions and heals through the same workload, the acceptance test and
// the lossy FaultChaosLegs alike.
//
// Every leg audits every step with the worker pool at 4 threads; any
// auditor ERROR fails the run.
#include <gtest/gtest.h>

#include <string>

#include "core/daemon.h"
#include "core/oracle.h"
#include "workload/fault_plan.h"
#include "workload/random_mutator.h"

namespace rgc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::GcDaemon;
using core::Oracle;

/// The checks every chaos leg runs under: the online health auditor on
/// every step, and the worker pool at 4 threads.
ClusterConfig checked_config() {
  ClusterConfig cfg;
  cfg.audit_interval = 1;
  cfg.threads = 4;
  return cfg;
}

/// ERRORs over every audit the cluster has run so far: each scheduled
/// per-step audit as well as the on-demand ones.
std::uint64_t audit_errors_so_far(const Cluster& cluster) {
  return cluster.auditor().metrics().get("audit.findings_error_total");
}

/// What every quiescence call on a chaos leg must report: the network
/// drained (nothing in flight) and `dead` equal to the pids currently down,
/// counted independently as crashes minus recoveries — on the fault legs
/// this covers the kill/restart/partition paths (purged traffic, revived
/// pids).
::testing::AssertionResult quiesced_cleanly(
    const Cluster& cluster, const core::QuiescenceStatus& status) {
  if (!status.quiescent) {
    return ::testing::AssertionFailure()
           << "not quiescent after " << status.steps << " steps";
  }
  if (status.in_flight != 0) {
    return ::testing::AssertionFailure()
           << status.in_flight << " messages still in flight";
  }
  const util::Metrics& nm = cluster.network().metrics();
  const std::uint64_t down =
      nm.get("cluster.crashes") - nm.get("cluster.recoveries");
  if (status.dead != down) {
    return ::testing::AssertionFailure()
           << "dead " << status.dead << " vs " << down << " pids down";
  }
  return ::testing::AssertionSuccess();
}

// gtest prints a parameter's raw bytes into each test's name, so the
// padding after `max_delay` is spelled out and zeroed: left as padding it
// could hold stack garbage and the names would change from build to build.
struct ChaosCase {
  std::uint64_t seed;
  std::size_t processes;
  double drop;
  double dup;
  std::uint32_t max_delay;
  std::uint32_t zero = 0;
};
static_assert(sizeof(ChaosCase) == sizeof(std::uint64_t) + sizeof(std::size_t) +
                                       2 * sizeof(double) +
                                       2 * sizeof(std::uint32_t));

class Chaos : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(Chaos, SafetyUnderEverything) {
  const ChaosCase param = GetParam();
  ClusterConfig cfg = checked_config();
  cfg.net.seed = param.seed;
  cfg.net.drop_probability = param.drop;
  cfg.net.duplicate_probability = param.dup;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = param.max_delay;
  Cluster cluster{cfg};
  for (std::size_t i = 0; i < param.processes; ++i) cluster.add_process();

  workload::MutatorSpec spec;
  spec.seed = param.seed * 7919 + 31;
  spec.w_collect = 0;  // the daemon collects
  spec.w_step = 5;
  workload::RandomMutator mutator{cluster, spec};
  GcDaemon daemon{cluster};

  for (int burst = 0; burst < 10; ++burst) {
    mutator.run(60);
    daemon.run(25);
    ASSERT_TRUE(quiesced_cleanly(cluster, cluster.run_until_quiescent()))
        << "seed " << param.seed << " burst " << burst;
    const auto report = Oracle::analyze(cluster);
    ASSERT_TRUE(report.violations.empty())
        << "seed " << param.seed << " burst " << burst << ": "
        << report.violations.front();
    const auto& health = cluster.audit();
    ASSERT_EQ(audit_errors_so_far(cluster), 0u)
        << "seed " << param.seed << " burst " << burst << "\n"
        << health.to_string();
  }
}

TEST_P(Chaos, EventualCompletenessOnceQuiet) {
  const ChaosCase param = GetParam();
  ClusterConfig cfg = checked_config();
  cfg.net.seed = param.seed ^ 0x5a5a;
  cfg.net.drop_probability = param.drop;
  cfg.net.duplicate_probability = param.dup;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = param.max_delay;
  Cluster cluster{cfg};
  for (std::size_t i = 0; i < param.processes; ++i) cluster.add_process();

  workload::MutatorSpec spec;
  spec.seed = param.seed * 104729 + 7;
  workload::RandomMutator mutator{cluster, spec};
  mutator.run(400);
  ASSERT_TRUE(quiesced_cleanly(cluster, cluster.run_until_quiescent()))
      << "seed " << param.seed;

  bool done = false;
  for (int attempt = 0; attempt < 60 && !done; ++attempt) {
    cluster.run_full_gc(3);
    const auto report = Oracle::analyze(cluster);
    ASSERT_TRUE(report.violations.empty()) << report.violations.front();
    done = report.garbage_objects().empty();
  }
  EXPECT_TRUE(done) << "seed " << param.seed;
  const auto& health = cluster.audit();
  EXPECT_EQ(audit_errors_so_far(cluster), 0u) << "seed " << param.seed << "\n"
                                              << health.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, Chaos,
    ::testing::Values(
        ChaosCase{101, 3, 0.0, 0.0, 1}, ChaosCase{102, 4, 0.2, 0.0, 3},
        ChaosCase{103, 4, 0.0, 0.3, 4}, ChaosCase{104, 5, 0.3, 0.2, 5},
        ChaosCase{105, 3, 0.2, 0.1, 3}, ChaosCase{106, 4, 0.2, 0.1, 3}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---- Fault chaos: crashes, restarts, partitions under full load ----------

/// Everything a fault-chaos run observed, comparable across runs of the
/// same seed for the reproducibility guarantee.
struct FaultRunOutcome {
  std::size_t garbage{0};
  std::size_t violations{0};
  std::uint64_t audit_errors{0};
  std::size_t plan_events{0};
  std::size_t applied{0};
  std::size_t skipped{0};
  std::uint64_t crashes{0};
  std::uint64_t recoveries{0};
  std::uint64_t lease_expirations{0};
  std::uint64_t total_objects{0};
  /// End-of-chaos quiescence (after the kills, restarts and partitions
  /// landed) drained the network and reported no pid down.
  bool quiesced{false};
  std::string detail;

  bool operator==(const FaultRunOutcome&) const = default;
};

/// One full fault-chaos scenario: a leased cluster (on top of `cfg`) under
/// random mutation and the GC daemon, with a seeded FaultPlan firing kills,
/// restarts, partitions, heals and persist-alls mid-flight; then
/// end-of-chaos (heal + restart everyone), quiescence, and GC until dry.
FaultRunOutcome run_fault_chaos(ClusterConfig cfg, std::uint64_t seed,
                                std::size_t processes, double drop, double dup,
                                std::uint32_t max_delay) {
  cfg.net.seed = seed;
  cfg.net.drop_probability = drop;
  cfg.net.duplicate_probability = dup;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = max_delay;
  cfg.lease_timeout = 48;
  Cluster cluster{cfg};
  for (std::size_t i = 0; i < processes; ++i) cluster.add_process();

  workload::FaultPlanSpec plan_spec;
  plan_spec.seed = seed * 31 + 7;
  plan_spec.kills = 4;
  plan_spec.partitions = 1;
  plan_spec.start = 24;
  plan_spec.horizon = 360;
  const auto plan =
      workload::FaultPlan::random(cluster.process_ids(), plan_spec);
  workload::FaultPlanRunner runner{cluster, plan};

  workload::MutatorSpec spec;
  spec.seed = seed * 7919 + 31;
  spec.w_collect = 0;  // the daemon collects
  spec.w_step = 5;
  workload::RandomMutator mutator{cluster, spec};
  GcDaemon daemon{cluster};

  // Interleave mutation, background GC (detection included — kills land
  // mid-detection), and the fault schedule until the plan drains.
  for (int round = 0; round < 60; ++round) {
    mutator.run(12);
    daemon.run(3);
    runner.poll();
    if (runner.done() && cluster.now() > plan_spec.start + plan_spec.horizon) {
      break;
    }
  }
  runner.finish();  // heal + restart everyone: end of chaos
  const core::QuiescenceStatus quiet = cluster.run_until_quiescent();

  bool dry = false;
  FaultRunOutcome out;
  out.quiesced = quiesced_cleanly(cluster, quiet) && quiet.dead == 0;
  for (int attempt = 0; attempt < 60 && !dry; ++attempt) {
    cluster.run_full_gc(3);
    const auto report = Oracle::analyze(cluster);
    out.violations = report.violations.size();
    if (out.violations != 0) {
      out.detail = report.violations.front();
      break;
    }
    dry = report.garbage_objects().empty();
  }
  out.garbage = Oracle::analyze(cluster).garbage_objects().size();

  const auto& health = cluster.audit();
  out.audit_errors = audit_errors_so_far(cluster);
  if (out.audit_errors != 0) out.detail = health.to_string();

  out.plan_events = plan.events.size();
  out.applied = runner.applied();
  out.skipped = runner.skipped();
  out.crashes = cluster.network().metrics().get("cluster.crashes");
  out.recoveries = cluster.network().metrics().get("cluster.recoveries");
  out.lease_expirations = cluster.metric_total("gc.lease_expirations");
  out.total_objects = cluster.total_objects();
  return out;
}

// The headline acceptance run (always on): 16 processes, ≥3 kills landing
// mid-detection, a partition episode plus heal, restarts from snapshots —
// then the cluster must quiesce with zero dead garbage, zero oracle
// violations and zero auditor errors.
TEST(FaultChaos, AcceptanceSixteenProcessFaultMix) {
  const auto out = run_fault_chaos(checked_config(), /*seed=*/2024,
                                   /*processes=*/16, /*drop=*/0.0,
                                   /*dup=*/0.0, /*max_delay=*/2);
  EXPECT_GE(out.crashes, 3u) << "plan applied too few kills to count";
  EXPECT_EQ(out.crashes, out.recoveries);  // everyone came back
  EXPECT_EQ(out.violations, 0u) << out.detail;
  EXPECT_EQ(out.garbage, 0u) << "floating garbage survived chaos";
  EXPECT_EQ(out.audit_errors, 0u) << out.detail;
  EXPECT_TRUE(out.quiesced)
      << "end-of-chaos quiescence left traffic in flight or a pid down";
}

// Same seed, same plan, same outcome — the chaos schedule is reproducible,
// so any failure above can be replayed exactly.  Runs on the cluster's
// default audit cadence and a single thread.
TEST(FaultChaos, AcceptanceRunIsSeedReproducible) {
  const auto a = run_fault_chaos({}, 2024, 16, 0.0, 0.0, 2);
  const auto b = run_fault_chaos({}, 2024, 16, 0.0, 0.0, 2);
  EXPECT_EQ(a, b);
  const auto c = run_fault_chaos({}, 2025, 16, 0.0, 0.0, 2);
  EXPECT_TRUE(c.crashes != a.crashes || c.applied != a.applied ||
              c.lease_expirations != a.lease_expirations ||
              c.total_objects != a.total_objects)
      << "different seeds produced byte-identical outcomes";
}

// The fault layer combined with message loss, duplication and jitter.  Each
// leg also checks, once its kills, restarts and partition have run, that the
// cluster quiesces with nothing in flight and no pid down.
class FaultChaosLegs : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(FaultChaosLegs, SafeAndCompleteUnderLossyChaos) {
  const ChaosCase param = GetParam();
  const auto out =
      run_fault_chaos(checked_config(), param.seed, param.processes,
                      param.drop, param.dup, param.max_delay);
  EXPECT_EQ(out.violations, 0u)
      << "seed " << param.seed << ": " << out.detail;
  EXPECT_EQ(out.garbage, 0u) << "seed " << param.seed;
  EXPECT_EQ(out.audit_errors, 0u)
      << "seed " << param.seed << "\n" << out.detail;
  EXPECT_TRUE(out.quiesced) << "seed " << param.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, FaultChaosLegs,
    ::testing::Values(ChaosCase{201, 8, 0.2, 0.0, 3},
                      ChaosCase{202, 10, 0.0, 0.2, 4},
                      ChaosCase{203, 12, 0.25, 0.15, 5}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace rgc
