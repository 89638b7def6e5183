// Online health auditor tests (obs/audit.h): no false positives on clean
// and chaotic workloads, deliberate corruptions are flagged as ERRORs,
// reclaim-latency accounting records real float times, quiescence status
// surfaces in run_until_quiescent / reports, and the Prometheus exposition
// is format-valid.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.h"
#include "core/daemon.h"
#include "core/oracle.h"
#include "core/report.h"
#include "gc/cycle/cdm.h"
#include "net/message.h"
#include "obs/health.h"
#include "obs/prom.h"
#include "rm/process.h"
#include "workload/figures.h"
#include "workload/mesh.h"
#include "workload/random_mutator.h"

namespace rgc {
namespace {

using core::Cluster;
using core::ClusterConfig;
using core::GcDaemon;
using core::Oracle;
using obs::HealthReport;
using obs::Severity;

bool has_finding(const HealthReport& report, std::string_view invariant,
                 Severity severity) {
  for (const obs::Finding& f : report.findings) {
    if (f.invariant == invariant && f.severity == severity) return true;
  }
  return false;
}

// ---- No false positives ----------------------------------------------------

TEST(AuditTest, CleanWorkloadProducesNoErrors) {
  ClusterConfig cfg;
  cfg.audit_interval = 4;  // scheduled audits ride along every 4 steps
  Cluster cluster{cfg};
  for (int i = 0; i < 3; ++i) cluster.add_process();

  workload::MutatorSpec spec;
  spec.seed = 2024;
  workload::RandomMutator mutator{cluster, spec};
  mutator.run(300);
  cluster.run_until_quiescent();
  cluster.collect_all();
  cluster.run_until_quiescent();

  const auto oracle = Oracle::analyze(cluster);
  EXPECT_TRUE(oracle.violations.empty()) << oracle.violations.front();
  const HealthReport& health = cluster.audit();
  EXPECT_EQ(health.errors(), 0u) << health.to_string();
  // The scheduled cadence actually fired during the workload.
  EXPECT_GT(cluster.auditor().metrics().get("audit.runs"), 1u);
  EXPECT_GE(health.audit_runs, 1u);
  EXPECT_TRUE(health.deep);
}

TEST(AuditTest, ChaoticWorkloadProducesNoFalsePositives) {
  // Loss + duplication + jitter with the daemon collecting in the
  // background: the auditor must stay quiet exactly when the oracle does.
  ClusterConfig cfg;
  cfg.net.seed = 77;
  cfg.net.drop_probability = 0.2;
  cfg.net.duplicate_probability = 0.15;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 4;
  cfg.audit_interval = 8;
  Cluster cluster{cfg};
  for (int i = 0; i < 4; ++i) cluster.add_process();

  workload::MutatorSpec spec;
  spec.seed = 4242;
  spec.w_collect = 0;
  workload::RandomMutator mutator{cluster, spec};
  GcDaemon daemon{cluster};

  for (int burst = 0; burst < 6; ++burst) {
    mutator.run(80);
    daemon.run(30);
    cluster.run_until_quiescent();
    const auto oracle = Oracle::analyze(cluster);
    ASSERT_TRUE(oracle.violations.empty()) << oracle.violations.front();
    const HealthReport& health = cluster.audit();
    ASSERT_EQ(health.errors(), 0u)
        << "burst " << burst << "\n"
        << health.to_string();
  }
}

TEST(AuditTest, BaselineFloodSurvivesACrashUnderPerStepAudits) {
  // The densest Fig. 9 sweep-2 mesh, where the replication-blind flood
  // burns out without a verdict: every step audited, and a non-head
  // process killed mid-flood, so CDM conservation has to bank the dead
  // detector's counters (HealthAuditor::note_crash).
  ClusterConfig cfg;
  cfg.mode = core::DetectorMode::kBaseline;
  cfg.audit_interval = 1;
  constexpr int kFloodStepsBeforeCrash = 25;  // of the 54 it runs
  Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(cluster, {4, 25, 1});
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(mesh.head_process, mesh.head).has_value());
  for (int i = 0; i < kFloodStepsBeforeCrash; ++i) cluster.step();
  ASSERT_FALSE(cluster.network().idle());
  const ProcessId victim =
      mesh.procs.front() == mesh.head_process ? mesh.procs[1] : mesh.procs[0];
  cluster.kill(victim);
  cluster.run_until_quiescent();

  EXPECT_TRUE(cluster.cycles_found().empty());
  const HealthReport& health = cluster.audit();
  EXPECT_EQ(health.errors(), 0u) << health.to_string();
  EXPECT_EQ(cluster.auditor().metrics().get("audit.findings_error_total"), 0u);
  EXPECT_GT(cluster.auditor().metrics().get("audit.runs"),
            static_cast<std::uint64_t>(kFloodStepsBeforeCrash));
}

// ---- Deliberate corruptions are flagged ------------------------------------

TEST(AuditTest, OrphanStubIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // Conjure a stub at P1 whose scion at P0 never existed: violates the
  // "clean before send propagate" causal order.
  cluster.process(p1).ensure_stub(rm::StubKey{x, p0}, cluster.now());

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "stub_scion", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, DroppedScionIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  const ObjectId y = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.add_ref(p0, x, y);
  cluster.propagate(x, p0, p1);  // exports x's ref to y: scion@P0, stub@P1
  cluster.run_until_quiescent();
  ASSERT_FALSE(cluster.process(p1).stubs().empty());
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // Lose the scion table at P0 behind the protocol's back; P1's stubs are
  // now unbacked.
  cluster.process(p0).scions().clear();

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "stub_scion", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, LostInPropIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.propagate(x, p0, p1);
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // Sever the child's inPropList while the parent's outProp entry remains;
  // with no link traffic in flight this must be an ERROR, not a WARN.
  cluster.process(p1).in_props().clear();

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "prop_pairing", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, LostCdmIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();

  // Feed the lineage accounting a CDM send that is never delivered or
  // dropped: with no CDM in flight the balance cannot return to zero.
  gc::CdmMsg msg;
  msg.cdm.detection_id = 42;
  const net::Envelope env{p0, p1, 1, cluster.now(), &msg};
  cluster.auditor().on_send(env);

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "cdm_lineage", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, OverDeliveredCdmIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();

  // A delivery with no matching send: the transport manufactured a CDM.
  // The negative balance is sticky — it stays an ERROR on every later run.
  gc::CdmMsg msg;
  msg.cdm.detection_id = 99;
  const net::Envelope env{p0, p1, 1, cluster.now(), &msg};
  cluster.auditor().on_deliver(env);

  EXPECT_TRUE(has_finding(cluster.audit(), "cdm_lineage", Severity::kError));
  EXPECT_TRUE(has_finding(cluster.audit(), "cdm_lineage", Severity::kError));
}

TEST(AuditTest, CdmCounterDriftIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  cluster.add_process();

  // A detector claiming to have sent a CDM the network never saw breaks the
  // cross-layer conservation identity.
  cluster.process(p0).metrics().add("cycle.cdms_sent");

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "cdm_conservation", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, ReclaimDanglingRefIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  const ObjectId b = cluster.new_object(p0);
  cluster.add_root(p0, a);
  cluster.add_ref(p0, a, b);
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // Evict b bypassing the collector: the live root a now holds a reference
  // that resolves to nothing — the exact shape of an unsafe reclaim.
  ASSERT_TRUE(cluster.process(p0).heap().erase(b));

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "reclaim_safety", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, DanglingRootIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  cluster.add_root(p0, a);
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // Evict a behind the collector's back while it stays in the root set.
  ASSERT_TRUE(cluster.process(p0).heap().erase(a));

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "root_integrity", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, ScionWithErasedAnchorIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  const ObjectId y = cluster.new_object(p1);
  cluster.add_root(p0, x);
  workload::make_remote_ref(cluster, p0, x, p1, y);  // scion {p0, y} at p1
  workload::settle(cluster);
  ASSERT_TRUE(cluster.process(p1).scions().contains(rm::ScionKey{p0, y}));
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // The scion now anchors an object that no longer exists.
  ASSERT_TRUE(cluster.process(p1).heap().erase(y));

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "scion_anchor", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, PropEntryWithoutReplicaIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.propagate(x, p0, p1);
  cluster.run_until_quiescent();
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // Drop the child's replica while its inProp entry (and the parent's
  // outProp twin) remain: the pairing holds, the entry names nothing.
  ASSERT_TRUE(cluster.process(p1).heap().erase(x));

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "prop_replica", Severity::kError))
      << health.to_string();
}

TEST(AuditTest, DanglingRefFromUnreachableObjectIsFlagged) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  const ObjectId b = cluster.new_object(p0);
  cluster.add_ref(p0, a, b);  // a is unrooted: floating garbage
  ASSERT_EQ(cluster.audit().errors(), 0u);

  // reclaim_safety only walks live objects; reference integrity covers the
  // unreachable rest of the heap.
  ASSERT_TRUE(cluster.process(p0).heap().erase(b));

  const HealthReport& health = cluster.audit();
  EXPECT_TRUE(has_finding(health, "ref_integrity", Severity::kError))
      << health.to_string();
}

// ---- Recovery windows stay WARN --------------------------------------------

TEST(AuditTest, StubOrphanedByCutIsAWarnUntilTheHolderCollects) {
  // A verdict's Cut deletes the cycle's scions at once; their stubs stay at
  // the holders until each holder's next LGC.  At idle, before any holder
  // collects, that mismatch is expected, not a violation.
  Cluster cluster;
  const auto fig = workload::build_figure2(cluster);
  cluster.snapshot_all();
  ASSERT_TRUE(cluster.detect(fig.p1, fig.x).has_value());
  cluster.run_until_quiescent();
  ASSERT_FALSE(cluster.cycles_found().empty());
  ASSERT_TRUE(cluster.network().idle());

  const HealthReport& health = cluster.audit();
  EXPECT_EQ(health.errors(), 0u) << health.to_string();
  bool awaiting_lgc = false;
  for (const obs::Finding& f : health.findings) {
    awaiting_lgc |= f.invariant == "stub_scion" &&
                    f.severity == Severity::kWarn &&
                    f.detail.ends_with("awaiting post-cut LGC retirement");
  }
  EXPECT_TRUE(awaiting_lgc) << health.to_string();

  // The holders' collections retire the orphaned stubs.
  cluster.run_full_gc();
  const HealthReport& after = cluster.audit();
  EXPECT_TRUE(after.findings.empty()) << after.to_string();
}

// ---- Reclaim-latency accounting --------------------------------------------

TEST(AuditTest, ReclaimLatencyIsRecorded) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  cluster.add_root(p0, a);
  for (int i = 0; i < 3; ++i) cluster.step();

  cluster.remove_root(p0, a);  // stamps a's unlinked_at at this step
  const std::uint64_t unlinked = cluster.now();
  for (int i = 0; i < 5; ++i) cluster.step();
  const auto result = cluster.collect(p0);
  ASSERT_EQ(result.reclaimed.size(), 1u);

  const util::Histogram& latency =
      cluster.process(p0).metrics().histogram("gc.reclaim_latency_steps");
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_EQ(latency.max(), cluster.now() - unlinked);
  EXPECT_GE(latency.max(), 5u);
}

TEST(AuditTest, FloatingGarbageIsAgedByDeepAudit) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ObjectId a = cluster.new_object(p0);
  cluster.add_root(p0, a);
  for (int i = 0; i < 2; ++i) cluster.step();  // move past step 0
  cluster.remove_root(p0, a);  // a floats from here on
  for (int i = 0; i < 7; ++i) cluster.step();

  cluster.audit();
  const util::Metrics& m = cluster.auditor().metrics();
  EXPECT_EQ(m.gauge_value("audit.floating_garbage"), 1u);
  EXPECT_GE(m.gauge_value("gc.floating_garbage_age"), 7u);

  cluster.collect(p0);
  cluster.audit();
  EXPECT_EQ(m.gauge_value("audit.floating_garbage"), 0u);
}

// ---- Quiescence status -----------------------------------------------------

TEST(AuditTest, QuiescenceStatusReportsTimeoutAndDrain) {
  Cluster cluster;
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.propagate(x, p0, p1);  // one Propagate now in flight

  const core::QuiescenceStatus stuck = cluster.run_until_quiescent(0);
  EXPECT_FALSE(stuck.quiescent);
  EXPECT_GT(stuck.in_flight, 0u);
  EXPECT_EQ(stuck.steps, 0u);

  const core::QuiescenceStatus drained = cluster.run_until_quiescent();
  EXPECT_TRUE(drained.quiescent);
  EXPECT_EQ(drained.in_flight, 0u);
  EXPECT_GT(drained.steps, 0u);

  // The give-up above was counted and surfaces with the GC counters.
  const core::ClusterReport report = core::make_report(cluster);
  bool found = false;
  for (const auto& [name, value] : report.gc_counters) {
    if (name == "cluster.quiescence_timeout") {
      found = true;
      EXPECT_EQ(value, 1u);
    }
  }
  EXPECT_TRUE(found);
}

// ---- Prometheus exposition -------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(name.front())) != 0) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

/// Strips a histogram-sample suffix so the family can be looked up.
std::string sample_family(std::string name) {
  for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
    if (name.size() > suffix.size() && name.ends_with(suffix)) {
      return name.substr(0, name.size() - suffix.size());
    }
  }
  return name;
}

TEST(AuditTest, PrometheusExpositionIsWellFormed) {
  ClusterConfig cfg;
  cfg.audit_interval = 4;
  Cluster cluster{cfg};
  const ProcessId p0 = cluster.add_process();
  const ProcessId p1 = cluster.add_process();
  const ObjectId x = cluster.new_object(p0);
  const ObjectId y = cluster.new_object(p0);
  cluster.add_root(p0, x);
  cluster.add_ref(p0, x, y);
  cluster.propagate(x, p0, p1);  // p1 gets a replica of x + a stub for y
  cluster.run_until_quiescent();
  cluster.invoke(p1, y);
  cluster.run_until_quiescent();
  cluster.remove_ref(p0, x, y);
  cluster.collect_all();
  cluster.run_until_quiescent();
  cluster.audit();

  // The same writer --prom-out uses.
  std::ostringstream sink;
  obs::write_prometheus(cluster, sink);
  const std::string text = sink.str();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');

  std::set<std::string> declared;
  std::istringstream lines{text};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.starts_with("#")) {
      ASSERT_TRUE(line.starts_with("# TYPE ")) << line;
      std::istringstream fields{line.substr(7)};
      std::string name;
      std::string type;
      ASSERT_TRUE(static_cast<bool>(fields >> name >> type)) << line;
      ASSERT_TRUE(valid_metric_name(name)) << line;
      ASSERT_TRUE(name.starts_with("rgc_")) << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      // One TYPE line per family — duplicates break scrapers.
      ASSERT_TRUE(declared.insert(name).second) << "duplicate TYPE: " << line;
      continue;
    }
    // Sample line: name[{labels}] value
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name;
    std::string value;
    if (brace != std::string::npos && brace < space) {
      const std::size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << line;
      name = line.substr(0, brace);
      ASSERT_EQ(line[close + 1], ' ') << line;
      value = line.substr(close + 2);
    } else {
      name = line.substr(0, space);
      value = line.substr(space + 1);
    }
    ASSERT_TRUE(valid_metric_name(name)) << line;
    ASSERT_TRUE(name.starts_with("rgc_")) << line;
    ASSERT_TRUE(declared.contains(sample_family(name)))
        << "sample without TYPE declaration: " << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    ASSERT_TRUE(end != nullptr && *end == '\0' && end != value.c_str())
        << "bad value in: " << line;
  }

  // The families the dashboard and CI lean on are all present.
  EXPECT_TRUE(declared.contains("rgc_audit_runs"));
  EXPECT_TRUE(declared.contains("rgc_audit_last_errors"));
  EXPECT_TRUE(declared.contains("rgc_net_sent_Propagate"));
  EXPECT_TRUE(declared.contains("rgc_gc_reclaim_latency_steps"));
}

}  // namespace
}  // namespace rgc
