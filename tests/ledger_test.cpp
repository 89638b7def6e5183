// Per-cycle cost ledger tests (obs/ledger.h): the critical-path
// decomposition identity on jittered mesh runs, byte-identical JSONL across
// worker-pool widths and across event-skip vs per-step schedules, the
// explain() drill-down, report/Prometheus surfacing, the event stream (a
// recording rebuilds the live ledger; hop parents agree with the timeline's
// lineage), and the allocation bounds (completed ring overwrite, live-slot
// eviction).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/report.h"
#include "obs/ledger.h"
#include "obs/prom.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "workload/figures.h"
#include "workload/mesh.h"

namespace rgc {
namespace {

using obs::Ledger;
using obs::LedgerEntry;
using obs::LedgerHop;
using obs::RecEvent;
using obs::RecKind;

core::ClusterConfig jittered_config(std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.net.seed = seed;
  cfg.net.min_delay = 1;
  cfg.net.max_delay = 3;  // jitter puts real queue-wait on the hops
  return cfg;
}

/// Builds the §5.2 mesh, proves + reclaims its spanning cycle, and leaves
/// the cluster quiescent with at least one completed ledger entry.
void run_mesh_gc(core::Cluster& cluster, std::size_t processes = 4,
                 std::size_t deps = 8) {
  workload::build_mesh(cluster, {processes, deps, /*extra_replicas=*/0});
  cluster.run_until_quiescent();
  cluster.run_full_gc();
  cluster.run_until_quiescent();
  cluster.collect_all();
  cluster.run_until_quiescent();
}

std::string ledger_jsonl(const core::Cluster& cluster) {
  std::ostringstream os;
  cluster.ledger()->write_jsonl(os);
  return os.str();
}

// ---- The decomposition identity --------------------------------------------

TEST(LedgerTest, DecompositionIdentityHoldsOnJitteredMeshes) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    core::Cluster cluster{jittered_config(seed)};
    run_mesh_gc(cluster);
    const Ledger* ledger = cluster.ledger();
    ASSERT_NE(ledger, nullptr);
    ASSERT_GT(ledger->completed(), 0u) << "seed " << seed;

    for (const LedgerEntry* e : ledger->entries()) {
      ASSERT_TRUE(e->complete);
      // e2e = detect + cut + sweep.
      EXPECT_EQ(e->e2e_steps, e->detect_steps + e->cut_wait_steps +
                                  e->cut_transit_steps + e->sweep_wait_steps)
          << "seed " << seed << " detection " << e->detection_id;
      // detect = sum over critical hops of (digest + wait + transit), and
      // the per-entry totals are exactly the per-hop sums.
      std::uint64_t digest = 0;
      std::uint64_t wait = 0;
      std::uint64_t transit = 0;
      for (const LedgerHop& hop : e->path) {
        digest += hop.digest_steps;
        wait += hop.wait_steps;
        transit += hop.transit_steps;
        EXPECT_EQ(hop.deliver_step - hop.sent_step,
                  hop.wait_steps + hop.transit_steps);
      }
      EXPECT_EQ(e->digest_steps, digest);
      EXPECT_EQ(e->wait_steps, wait);
      EXPECT_EQ(e->transit_steps, transit);
      EXPECT_EQ(e->detect_steps, digest + wait + transit)
          << "seed " << seed << " detection " << e->detection_id;
      // The chain is causal: contiguous in time, ending at the verdict.
      if (!e->path.empty()) {
        EXPECT_EQ(e->path.front().sent_step - e->path.front().digest_steps,
                  e->started_step);
        EXPECT_EQ(e->path.back().deliver_step, e->detected_step);
      }
      EXPECT_GE(e->reclaimed_step, e->detected_step);
      EXPECT_EQ(e->e2e_steps, e->reclaimed_step - e->started_step);
    }
  }
}

TEST(LedgerTest, MeshRunAttributesCutAndTraffic) {
  core::Cluster cluster{jittered_config(5)};
  run_mesh_gc(cluster);
  const Ledger* ledger = cluster.ledger();
  const auto top = ledger->slowest(1);
  ASSERT_EQ(top.size(), 1u);
  const LedgerEntry* e = top[0];
  EXPECT_GT(e->cdm_msgs, 0u);
  EXPECT_GT(e->cdm_weight, e->cdm_msgs);  // CDMs carry sets, weight > count
  EXPECT_GE(e->cut_msgs, 1u);
  EXPECT_GE(e->scions_cut + e->props_cut, 1u);
  EXPECT_GE(e->members_reclaimed, 1u);
  EXPECT_GT(e->hops, 0u);
  EXPECT_FALSE(e->dominant().empty());
  EXPECT_FALSE(e->path.empty());
}

// ---- Determinism -----------------------------------------------------------

TEST(LedgerTest, JsonlByteIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    core::ClusterConfig cfg = jittered_config(1234);
    cfg.threads = threads;
    core::Cluster cluster{cfg};
    run_mesh_gc(cluster, /*processes=*/6, /*deps=*/8);
    return ledger_jsonl(cluster);
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel)
      << "ledger contents must not depend on ClusterConfig::threads";
}

TEST(LedgerTest, JsonlByteIdenticalAcrossSchedules) {
  // Event-skip (Cluster::advance / run_until_quiescent) promises a schedule
  // observably identical to per-step execution; the ledger reads virtual
  // steps off every hop, so byte-identical JSONL is a direct witness.
  const auto drive = [](bool event_skip) {
    core::Cluster cluster{jittered_config(99)};
    // Figure 2: one replicated garbage cycle across four processes, fully
    // reclaimable from a single detection + cut (figures_test proves this).
    const workload::Figure2 fig = workload::build_figure2(cluster);
    const auto drain = [&] {
      if (event_skip) {
        cluster.run_until_quiescent();
      } else {
        std::uint64_t steps = 0;
        while (!cluster.network().idle() && steps++ < 100000) cluster.step();
      }
    };
    drain();
    cluster.snapshot_all();
    cluster.detect(fig.p1, fig.x);
    drain();
    // The cut deletes X@P1's scion; acyclic rounds cascade the reclaim
    // through the remaining replicas back to the candidate.
    for (int round = 0; round < 8; ++round) {
      cluster.collect_all();
      drain();
    }
    return ledger_jsonl(cluster);
  };
  const std::string per_step = drive(false);
  const std::string skipped = drive(true);
  ASSERT_FALSE(per_step.empty());
  EXPECT_EQ(per_step, skipped)
      << "event-skip scheduling changed the ledger's observed lifecycle";
}

// ---- Drill-down & surfacing ------------------------------------------------

TEST(LedgerTest, ExplainPrintsTheCriticalPath) {
  core::Cluster cluster{jittered_config(3)};
  run_mesh_gc(cluster);
  const Ledger* ledger = cluster.ledger();
  const auto top = ledger->slowest(1);
  ASSERT_FALSE(top.empty());

  // id 0 explains the slowest completed cycle.
  const std::string text = ledger->explain(0);
  EXPECT_NE(text.find("cycle " + std::to_string(top[0]->detection_id)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("e2e"), std::string::npos);
  EXPECT_NE(text.find("dominant:"), std::string::npos);
  // Each critical hop renders one line.
  std::size_t hop_lines = 0;
  for (std::size_t at = text.find("digest "); at != std::string::npos;
       at = text.find("digest ", at + 1)) {
    ++hop_lines;
  }
  EXPECT_GE(hop_lines, top[0]->path.size());

  EXPECT_NE(ledger->explain(0xdead).find("unknown detection id"),
            std::string::npos);
  EXPECT_EQ(ledger->explain(top[0]->detection_id), text)
      << "explicit id of the slowest cycle must match explain(0)";
}

TEST(LedgerTest, ReportAndPrometheusSurfaceTheLedger) {
  core::Cluster cluster{jittered_config(2)};
  run_mesh_gc(cluster);

  const core::ClusterReport report = core::make_report(cluster);
  ASSERT_FALSE(report.slowest_cycles.empty());
  EXPECT_TRUE(report.slowest_cycles.front().complete);
  // Slowest first.
  for (std::size_t i = 1; i < report.slowest_cycles.size(); ++i) {
    EXPECT_GE(report.slowest_cycles[i - 1].e2e_steps,
              report.slowest_cycles[i].e2e_steps);
  }
  bool counter_present = false;
  for (const auto& [name, value] : report.gc_counters) {
    if (name == "ledger.cycles_reclaimed") {
      counter_present = true;
      EXPECT_GT(value, 0u);
    }
  }
  EXPECT_TRUE(counter_present);
  EXPECT_NE(report.to_string().find("slowest cycles (ledger)"),
            std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"slowest_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"detection_id\""), std::string::npos);

  std::ostringstream prom;
  obs::write_prometheus(cluster, prom);
  EXPECT_NE(prom.str().find("rgc_ledger_cycles_reclaimed"),
            std::string::npos);
  EXPECT_NE(prom.str().find("rgc_ledger_e2e_steps"), std::string::npos);
}

TEST(LedgerTest, EveryVerdictCompletesOrCountsAsDuplicate) {
  // A full GC of an `ours` mesh proves its cycle more than once: later
  // verdicts name a candidate the first verdict's entry already awaits.
  for (const std::size_t deps : {6u, 20u}) {
    core::Cluster cluster{core::ClusterConfig{}};
    workload::build_mesh(cluster, {/*processes=*/3, deps, 0});
    cluster.run_full_gc();
    cluster.run_until_quiescent();
    const Ledger& ledger = *cluster.ledger();
    const util::Metrics& m = ledger.metrics();
    EXPECT_GT(m.get("ledger.duplicate_verdicts"), 0u) << "deps " << deps;
    EXPECT_EQ(m.get("ledger.cycles_proven") +
                  m.get("ledger.duplicate_verdicts"),
              cluster.cycles_found().size())
        << "deps " << deps;
    EXPECT_EQ(m.get("ledger.cycles_proven"), ledger.completed())
        << "deps " << deps;
    EXPECT_EQ(ledger.live(), 0u) << "deps " << deps;
  }
}

TEST(LedgerTest, DisabledWhenCapacityZero) {
  core::ClusterConfig cfg = jittered_config(1);
  cfg.ledger_capacity = 0;
  core::Cluster cluster{cfg};
  EXPECT_EQ(cluster.ledger(), nullptr);
  run_mesh_gc(cluster);  // still collects fine without a ledger
  EXPECT_TRUE(core::make_report(cluster).slowest_cycles.empty());
}

// ---- The event stream -----------------------------------------------------

std::string ledger_prometheus(const Ledger& ledger) {
  std::ostringstream os;
  ledger.metrics().to_prometheus(os);
  return os.str();
}

TEST(LedgerTest, RecordingRebuildsTheLiveLedger) {
  core::ClusterConfig cfg = jittered_config(11);
  cfg.net.drop_probability = 0.02;
  cfg.net.duplicate_probability = 0.1;
  cfg.record_capacity = std::size_t{1} << 16;  // no ring wraps
  core::Cluster cluster{cfg};
  run_mesh_gc(cluster, /*processes=*/5, /*deps=*/12);
  const Ledger& live = *cluster.ledger();
  ASSERT_GT(live.completed(), 0u);
  ASSERT_GT(live.metrics().get("ledger.cdm_duplicated"), 0u);
  ASSERT_EQ(cluster.recorder()->dropped(), 0u);

  const auto run = obs::FlightRecorder::decode(
      cluster.recorder()->encode(cluster.recorder_stamp()));
  ASSERT_TRUE(run.has_value());
  Ledger rebuilt{256, run->stamp.min_delay};
  for (const obs::RecEvent& e : run->events) rebuilt.consume(e);

  std::ostringstream jsonl;
  rebuilt.write_jsonl(jsonl);
  EXPECT_EQ(jsonl.str(), ledger_jsonl(cluster));
  EXPECT_EQ(rebuilt.explain(0), live.explain(0));
  EXPECT_EQ(ledger_prometheus(rebuilt), ledger_prometheus(live));
}

TEST(LedgerTest, RunsWithoutARecording) {
  // record_capacity 0 keeps no rings, but the event stream still feeds
  // the ledger.
  const auto run = [](std::size_t record_capacity) {
    core::ClusterConfig cfg = jittered_config(8);
    cfg.record_capacity = record_capacity;
    core::Cluster cluster{cfg};
    run_mesh_gc(cluster);
    EXPECT_EQ(cluster.recorder() == nullptr, record_capacity == 0);
    return ledger_jsonl(cluster);
  };
  const std::string unrecorded = run(0);
  ASSERT_FALSE(unrecorded.empty());
  EXPECT_EQ(unrecorded, run(4096));
}

TEST(LedgerTest, CriticalPathMatchesTimelineLineage) {
  core::ClusterConfig cfg = jittered_config(6);
  cfg.record_capacity = std::size_t{1} << 16;
  core::Cluster cluster{cfg};
  // Three processes: the detection passes each one several times, so a
  // hop's parent must be the latest delivery there, not the first.
  run_mesh_gc(cluster, /*processes=*/3, /*deps=*/6);
  const auto run = obs::FlightRecorder::decode(
      cluster.recorder()->encode(cluster.recorder_stamp()));
  ASSERT_TRUE(run.has_value());
  const std::vector<obs::ViewEvent> timeline = obs::timeline_events(*run);
  const auto by_id = [&](std::uint64_t id) -> const obs::RecEvent* {
    for (const obs::ViewEvent& v : timeline) {
      if (v.id == id) return v.source;
    }
    return nullptr;
  };
  // The timeline event matching `match`, in stream order.
  const auto find = [&](const auto& match) -> const obs::ViewEvent* {
    for (const obs::ViewEvent& v : timeline) {
      if (v.source != nullptr && match(*v.source)) return &v;
    }
    return nullptr;
  };
  const auto is = [](const obs::RecEvent& e, RecKind kind) {
    return e.kind == static_cast<std::uint8_t>(kind);
  };

  std::size_t hops = 0;
  for (const LedgerEntry* entry : cluster.ledger()->entries()) {
    const std::uint64_t id = entry->detection_id;
    // The timeline parent of each hop's send, then of the verdict: the
    // detection start, or a delivery of the previous hop's send.
    const obs::RecEvent* prev_send = nullptr;
    const auto expect_parent = [&](const obs::ViewEvent& child,
                                   ProcessId at) {
      const obs::RecEvent* parent = by_id(child.parent);
      ASSERT_NE(parent, nullptr) << "detection " << id;
      EXPECT_EQ(parent->b, id);
      EXPECT_EQ(parent->pid, raw(at));
      if (prev_send == nullptr) {
        EXPECT_TRUE(is(*parent, RecKind::kDetectStart)) << "detection " << id;
      } else {
        EXPECT_TRUE(is(*parent, RecKind::kDeliver)) << "detection " << id;
        EXPECT_EQ(parent->peer, prev_send->pid);
        EXPECT_EQ(parent->a, prev_send->a);
      }
    };
    for (const LedgerHop& hop : entry->path) {
      const obs::ViewEvent* send = find([&](const obs::RecEvent& e) {
        return is(e, RecKind::kSend) &&
               e.msg == static_cast<std::uint8_t>(obs::RecMsg::kCdm) &&
               e.b == id && e.pid == raw(hop.src) &&
               e.peer == raw(hop.dst) && e.step == hop.sent_step;
      });
      ASSERT_NE(send, nullptr) << "detection " << id;
      expect_parent(*send, hop.src);
      prev_send = send->source;
      ++hops;
    }
    const obs::ViewEvent* verdict = find([&](const obs::RecEvent& e) {
      return is(e, RecKind::kVerdict) && e.b == id;
    });
    ASSERT_NE(verdict, nullptr) << "detection " << id;
    expect_parent(*verdict, entry->verdict_process);
  }
  EXPECT_GT(hops, 0u);
}

// ---- Allocation bounds (fed events directly) -------------------------------

// Detection ids below 2^32 start on P0 (gc::detection_initiator), so P0 is
// the candidate's process in every event below.

/// The kVerdict event of a detection proven at `at`, appended at its start
/// step.
RecEvent verdict(ProcessId at, std::uint64_t id, std::uint64_t candidate,
                 std::uint64_t started, std::uint64_t unlinked = 0) {
  RecEvent e;
  e.kind = static_cast<std::uint8_t>(RecKind::kVerdict);
  e.step = started;
  e.pid = raw(at);
  e.a = candidate;
  e.b = id;
  e.c = started;
  e.d = unlinked;
  return e;
}

/// The kFreed event of `pid`'s sweep reclaiming `object` at `step`.
RecEvent freed(ProcessId pid, std::uint64_t object, std::uint64_t step) {
  RecEvent e;
  e.kind = static_cast<std::uint8_t>(RecKind::kFreed);
  e.step = step;
  e.pid = raw(pid);
  e.a = object;
  return e;
}

TEST(LedgerTest, CompletedRingOverwritesOldest) {
  Ledger ledger{/*capacity=*/2};
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ledger.consume(verdict(ProcessId{0}, i, 100 + i, 10 * i));
    ledger.consume(freed(ProcessId{0}, 100 + i, 10 * i + 5));
  }
  EXPECT_EQ(ledger.completed(), 3u);
  EXPECT_EQ(ledger.metrics().get("ledger.entries_overwritten"), 1u);
  const auto kept = ledger.entries();
  ASSERT_EQ(kept.size(), 2u);
  // Oldest-first ring order: detection 1 was overwritten, 2 and 3 remain.
  EXPECT_EQ(kept[0]->detection_id, 2u);
  EXPECT_EQ(kept[1]->detection_id, 3u);
  EXPECT_EQ(ledger.find(1), nullptr);
}

TEST(LedgerTest, LiveSlotsEvictOldestWhenFull) {
  Ledger ledger;
  // One more concurrent (never reclaimed) detection than there are slots.
  for (std::uint64_t i = 1; i <= obs::kLedgerMaxLive; ++i) {
    ledger.consume(verdict(ProcessId{0}, i, 100 + i, 10 * i));
  }
  EXPECT_EQ(ledger.live(), obs::kLedgerMaxLive);
  const std::uint64_t last = obs::kLedgerMaxLive + 1;
  ledger.consume(verdict(ProcessId{0}, last, 100 + last, 10 * last));
  EXPECT_EQ(ledger.live(), obs::kLedgerMaxLive);
  EXPECT_EQ(ledger.metrics().get("ledger.evictions"), 1u);
  EXPECT_EQ(ledger.find(1), nullptr);  // the oldest track was evicted
  ASSERT_NE(ledger.find(last), nullptr);
  // The evicted detection's member no longer completes anything.
  ledger.consume(freed(ProcessId{0}, 101, 9999));
  EXPECT_EQ(ledger.completed(), 0u);
}

TEST(LedgerTest, DuplicateVerdictsAreCountedOnce) {
  Ledger ledger;
  ledger.consume(verdict(ProcessId{0}, 7, 107, 10));
  ledger.consume(verdict(ProcessId{1}, 7, 107, 10));  // racing duplicate
  EXPECT_EQ(ledger.metrics().get("ledger.cycles_proven"), 1u);
  EXPECT_EQ(ledger.metrics().get("ledger.duplicate_verdicts"), 1u);
  ASSERT_NE(ledger.find(7), nullptr);
  EXPECT_EQ(ledger.find(7)->verdict_process, ProcessId{0});  // first wins
}

TEST(LedgerTest, ZeroHopLocalDetectionCompletes) {
  Ledger ledger;
  ledger.consume(verdict(ProcessId{2}, 9, 109, 40, /*unlinked=*/35));
  ledger.consume(freed(ProcessId{0}, 109, 44));
  const LedgerEntry* e = ledger.find(9);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->complete);
  EXPECT_TRUE(e->path.empty());
  EXPECT_EQ(e->detect_steps, 0u);
  EXPECT_EQ(e->unlinked_step, 35u);
  // No cut observed: the whole post-verdict stretch is sweep wait.
  EXPECT_EQ(e->sweep_wait_steps, 4u);
  EXPECT_EQ(e->e2e_steps, 4u);
}

}  // namespace
}  // namespace rgc
