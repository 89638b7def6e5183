// Flight recorder & replay tests (obs/recorder.h, obs/replay.h): ring
// wrap/overwrite accounting, `.rgcrec` round-trip and corruption rejection,
// byte-identical recordings across worker-pool widths, live replay diffing
// with an injected perturbation, exact divergence bisection, the quiescence
// gauges, and the recovery protocol in the timeline view.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.h"
#include "obs/recorder.h"
#include "obs/replay.h"
#include "obs/timeline.h"
#include "rm/process.h"
#include "workload/random_mutator.h"

namespace rgc {
namespace {

using obs::ChaosRunSpec;
using obs::FlightRecorder;
using obs::RecEvent;
using obs::RecKind;
using obs::RecorderConfig;
using obs::RecordedRun;
using obs::RecStamp;

/// The canonical 16-process chaos recording (default ChaosRunSpec).  The
/// run is deterministic, so one execution serves every test that needs it.
const std::string& default_recording() {
  static const std::string bytes = obs::record_chaos_run(ChaosRunSpec{});
  return bytes;
}

const RecordedRun& default_run() {
  static const RecordedRun run = *FlightRecorder::decode(default_recording());
  return run;
}

// ---- Ring mechanics --------------------------------------------------------

TEST(RecorderTest, RingWrapKeepsNewestAndCountsOverwrites) {
  FlightRecorder rec{RecorderConfig{4}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.append(RecKind::kKill, ProcessId{1}, i, 0);
  }
  EXPECT_EQ(rec.appended(), 10u);
  EXPECT_EQ(rec.depth(), 4u);    // one ring, capacity 4
  EXPECT_EQ(rec.dropped(), 6u);  // the 6 oldest were overwritten

  const auto run = FlightRecorder::decode(rec.encode(RecStamp{}));
  ASSERT_TRUE(run.has_value());
  ASSERT_EQ(run->rings.size(), 1u);
  const obs::RecRing& ring = run->rings[0];
  EXPECT_EQ(ring.pid, 1u);
  EXPECT_EQ(ring.dropped, 6u);
  ASSERT_EQ(ring.events.size(), 4u);
  // Oldest-first unwrap: the survivors are appends 6..9, in order.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.events[i].a, 6 + i);
    EXPECT_EQ(ring.events[i].seq, 6 + i);
  }
}

TEST(RecorderTest, MetricsGaugesTrackRingState) {
  FlightRecorder rec{RecorderConfig{2}};
  rec.append(RecKind::kSweep, ProcessId{0}, 3, 30);
  rec.append(RecKind::kSweep, ProcessId{1}, 4, 40);
  // Overwrites nothing yet (cap 2 per ring).
  rec.append(RecKind::kSweep, ProcessId{0}, 5, 50);
  EXPECT_EQ(rec.metrics().gauge_value("recorder.capacity"), 2u);
  EXPECT_EQ(rec.metrics().gauge_value("recorder.appended_total"), 3u);
  EXPECT_EQ(rec.metrics().gauge_value("recorder.depth"), 3u);
  rec.append(RecKind::kSweep, ProcessId{0}, 6, 60);  // P0's ring wraps
  EXPECT_EQ(rec.metrics().gauge_value("recorder.dropped_total"), 1u);
}

TEST(RecorderTest, RingAccountingSurvivesEventSkipJumps) {
  // Cluster::advance may leap hundreds of idle steps at once; the ring
  // accounting (appended == depth + dropped, per-ring wrap behaviour) must
  // come out identical to per-step execution even when the ring is small
  // enough to wrap many times mid-run.
  const auto drive = [](bool event_skip) {
    core::ClusterConfig cfg;
    cfg.record_capacity = 8;  // tiny rings: every burst wraps them
    core::Cluster cluster{cfg};
    std::vector<ProcessId> pids;
    for (int i = 0; i < 3; ++i) pids.push_back(cluster.add_process());
    std::vector<ObjectId> children;
    for (int i = 0; i < 3; ++i) {
      const ObjectId parent = cluster.new_object(pids[i]);
      const ObjectId child = cluster.new_object(pids[i]);
      cluster.add_root(pids[i], parent);
      cluster.add_ref(pids[i], parent, child);
      cluster.propagate(parent, pids[i], pids[(i + 1) % 3]);
      children.push_back(child);
    }
    for (int s = 0; s < 10; ++s) cluster.step();
    // Traffic bursts separated by long idle gaps the scheduler can skip;
    // each collect_all appends sweep events on top of transport events.
    for (int round = 0; round < 6; ++round) {
      cluster.invoke(pids[(round + 1) % 3], children[round % 3],
                     /*root_steps=*/2 + round % 3);
      cluster.collect_all();
      if (event_skip) {
        cluster.advance(211);
      } else {
        for (int s = 0; s < 211; ++s) cluster.step();
      }
    }
    const FlightRecorder* rec = cluster.recorder();
    struct Accounting {
      std::uint64_t appended, dropped, depth;
      std::string bytes;
    };
    return Accounting{rec->appended(), rec->dropped(), rec->depth(),
                      rec->encode(RecStamp{})};
  };

  const auto a = drive(/*event_skip=*/false);
  const auto b = drive(/*event_skip=*/true);
  EXPECT_GT(a.appended, 0u);
  EXPECT_GT(a.dropped, 0u) << "capacity 8 must wrap under this workload";
  // Conservation on both sides, and identical accounting across schedules.
  EXPECT_EQ(a.appended, a.depth + a.dropped);
  EXPECT_EQ(b.appended, b.depth + b.dropped);
  EXPECT_EQ(a.appended, b.appended);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.bytes, b.bytes);
}

// ---- Serialization ---------------------------------------------------------

RecStamp sample_stamp() {
  RecStamp stamp;
  stamp.seed = 42;
  stamp.processes = 3;
  stamp.drop_bits = std::bit_cast<std::uint64_t>(0.25);
  stamp.dup_bits = std::bit_cast<std::uint64_t>(0.01);
  stamp.max_delay = 5;
  stamp.lease_timeout = 48;
  stamp.rounds = 9;
  stamp.capacity = 16;
  return stamp;
}

TEST(RecorderTest, EncodeDecodeRoundTrip) {
  FlightRecorder rec{RecorderConfig{16}};
  rec.phase(obs::kPhaseSnapshotAll, 3);
  rec.append(RecKind::kSweep, ProcessId{0}, 2, 100);
  rec.append(RecKind::kReclaim, ProcessId{1}, 77, 0, ProcessId{2});
  rec.append(RecKind::kLeaseExpiry, ProcessId{2}, 4);
  rec.append(RecKind::kKill, ProcessId{1});
  rec.append(RecKind::kRestart, ProcessId{1}, 2, 1);
  rec.append(RecKind::kAuditError, kNoProcess, 1);

  const RecStamp stamp = sample_stamp();
  const auto run = FlightRecorder::decode(rec.encode(stamp));
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->stamp, stamp);
  EXPECT_EQ(run->appended, 7u);
  EXPECT_EQ(run->dropped, 0u);
  ASSERT_EQ(run->events.size(), 7u);
  // The merge is ordered by global seq — the exact append order.
  for (std::uint64_t i = 0; i < run->events.size(); ++i) {
    EXPECT_EQ(run->events[i].seq, i);
  }
  EXPECT_EQ(run->events[2].kind,
            static_cast<std::uint8_t>(RecKind::kReclaim));
  EXPECT_EQ(run->events[2].a, 77u);
  EXPECT_EQ(run->events[2].peer, 2u);
  // describe() renders every kind without the transport intern table.
  for (const RecEvent& ev : run->events) {
    EXPECT_FALSE(obs::describe(ev, run->kinds).empty());
  }
}

TEST(RecorderTest, DecodeRejectsCorruption) {
  FlightRecorder rec{RecorderConfig{8}};
  rec.append(RecKind::kSweep, ProcessId{0}, 1, 10);
  std::string bytes = rec.encode(sample_stamp());
  ASSERT_TRUE(FlightRecorder::decode(bytes).has_value());

  EXPECT_FALSE(FlightRecorder::decode(std::string{}).has_value());
  EXPECT_FALSE(FlightRecorder::decode(bytes.substr(0, 10)).has_value());
  EXPECT_FALSE(
      FlightRecorder::decode(bytes.substr(0, bytes.size() - 3)).has_value());
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x40;  // checksum must catch a single bit
  EXPECT_FALSE(FlightRecorder::decode(flipped).has_value());
  std::string garbage(bytes.size(), 'x');
  EXPECT_FALSE(FlightRecorder::decode(garbage).has_value());
}

TEST(RecorderTest, DumpRecordingWritesDecodableFile) {
  FlightRecorder rec{RecorderConfig{8}};
  rec.append(RecKind::kSweep, ProcessId{2}, 5, 100);
  const std::string path = testing::TempDir() + "recorder_dump.rgcrec";
  ASSERT_TRUE(obs::dump_recording(rec, sample_stamp(), path));

  std::ifstream is{path, std::ios::binary};
  ASSERT_TRUE(is.good());
  const std::string bytes{std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>()};
  const auto run = FlightRecorder::decode(bytes);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->stamp.seed, 42u);
  ASSERT_EQ(run->events.size(), 1u);
  EXPECT_EQ(run->events[0].pid, 2u);
}

// ---- Live reference diffing ------------------------------------------------

TEST(RecorderTest, ReferenceDiffLatchesFirstMismatch) {
  FlightRecorder first{RecorderConfig{8}};
  first.append(RecKind::kSweep, ProcessId{1}, 1, 10);
  first.append(RecKind::kSweep, ProcessId{1}, 2, 20);
  const auto reference = FlightRecorder::decode(first.encode(RecStamp{}));
  ASSERT_TRUE(reference.has_value());

  FlightRecorder live{RecorderConfig{8}};
  live.set_reference(&*reference);
  live.append(RecKind::kSweep, ProcessId{1}, 1, 10);  // matches
  EXPECT_FALSE(live.divergence().found);
  live.append(RecKind::kSweep, ProcessId{1}, 3, 20);  // reclaimed differs
  ASSERT_TRUE(live.divergence().found);
  EXPECT_FALSE(live.divergence().extra);
  EXPECT_EQ(live.divergence().seq, 1u);
  EXPECT_EQ(live.divergence().expected.a, 2u);
  EXPECT_EQ(live.divergence().actual.a, 3u);
  // The latch holds the FIRST divergence through later appends.
  live.append(RecKind::kSweep, ProcessId{1}, 9, 90);
  EXPECT_EQ(live.divergence().seq, 1u);
}

TEST(RecorderTest, ReferenceDiffFlagsEventsPastRecordedEnd) {
  FlightRecorder first{RecorderConfig{8}};
  first.append(RecKind::kSweep, ProcessId{1}, 1, 10);
  const auto reference = FlightRecorder::decode(first.encode(RecStamp{}));
  ASSERT_TRUE(reference.has_value());

  FlightRecorder live{RecorderConfig{8}};
  live.set_reference(&*reference);
  live.append(RecKind::kSweep, ProcessId{1}, 1, 10);
  // The reference ended before this.
  live.append(RecKind::kSweep, ProcessId{1}, 2, 20);
  ASSERT_TRUE(live.divergence().found);
  EXPECT_TRUE(live.divergence().extra);
  EXPECT_EQ(live.divergence().seq, 1u);
}

// ---- Deterministic replay over the chaos workload --------------------------

TEST(RecorderTest, ChaosRecordingIsByteIdenticalAcrossThreadCounts) {
  const std::string& serial = default_recording();
  ASSERT_FALSE(serial.empty());

  ChaosRunSpec wide;
  wide.threads = 4;
  const std::string parallel = obs::record_chaos_run(wide);
  EXPECT_EQ(serial, parallel)
      << "recordings must not depend on ClusterConfig::threads";

  const RecordedRun& run = default_run();
  EXPECT_EQ(run.stamp.processes, 16u);
  EXPECT_GT(run.events.size(), 100u);  // chaos produced real traffic
  EXPECT_GT(run.kinds.size(), 0u);     // transport kinds were interned
}

TEST(RecorderTest, EventSkipSchedulingIsByteIdenticalToPerStep) {
  // The discrete-event scheduler (Cluster::advance / run_until_quiescent)
  // promises a schedule observably identical to step()-by-step execution.
  // The flight recorder sees every transport event, GC phase, lease expiry
  // and audit at its exact virtual step, so byte-identical recordings are
  // the strongest available witness of that promise.
  const auto drive = [](bool event_skip) {
    core::ClusterConfig cfg;
    cfg.lease_timeout = 48;  // heartbeat + lease clamps in play
    core::Cluster cluster{cfg};
    std::vector<ProcessId> pids;
    for (int i = 0; i < 4; ++i) pids.push_back(cluster.add_process());
    // Each process exports a parent holding a child: the receiver gets a
    // replica of the parent plus a stub for the enclosed child — the stub
    // is what makes the child remotely invocable.
    std::vector<ObjectId> children;
    for (int i = 0; i < 4; ++i) {
      const ObjectId parent = cluster.new_object(pids[i]);
      const ObjectId child = cluster.new_object(pids[i]);
      cluster.add_root(pids[i], parent);
      cluster.add_ref(pids[i], parent, child);
      cluster.propagate(parent, pids[i], pids[(i + 1) % 4]);
      children.push_back(child);
    }
    // Deliver the propagations identically in both modes (short, busy).
    for (int s = 0; s < 10; ++s) cluster.step();
    // Bursts of traffic (invocations pin transient roots with staggered
    // TTLs) separated by long idle stretches the scheduler may skip.
    for (int round = 0; round < 5; ++round) {
      cluster.invoke(pids[(round + 1) % 4], children[round % 4],
                     /*root_steps=*/3 + round);
      if (event_skip) {
        cluster.advance(97);
      } else {
        for (int s = 0; s < 97; ++s) cluster.step();
      }
    }
    cluster.collect_all();
    if (event_skip) {
      cluster.run_until_quiescent(1000);
    } else {
      std::uint64_t steps = 0;
      while (!cluster.network().idle() && steps++ < 1000) cluster.step();
    }
    return cluster.recorder()->encode(sample_stamp());
  };

  const std::string per_step = drive(/*event_skip=*/false);
  const std::string skipped = drive(/*event_skip=*/true);
  ASSERT_FALSE(per_step.empty());
  EXPECT_EQ(per_step, skipped)
      << "event-skip scheduling changed the observable event stream";
}

TEST(RecorderTest, ReplayReproducesRecordingByteForByte) {
  const obs::ReplayOutcome outcome =
      obs::replay_recording(default_recording(), /*threads=*/4);
  ASSERT_TRUE(outcome.loaded) << outcome.error;
  EXPECT_FALSE(outcome.divergence.found) << outcome.report;
  EXPECT_TRUE(outcome.byte_identical) << outcome.report;
  EXPECT_NE(outcome.report.find("byte-identical"), std::string::npos);
}

TEST(RecorderTest, DaemonRecordingReusesMarksAndReplaysByteForByte) {
  // The daemon collects every lane on its period, so a recorded run
  // collects processes that did not change since their last collection:
  // the mark-reuse path runs inside the recording, and replay reproduces
  // it.  `sim_cli --record`'s default shape (4 processes).
  ChaosRunSpec spec;
  spec.seed = 1;
  spec.processes = 4;
  std::uint64_t marks_reused = 0;
  const std::string bytes =
      obs::record_chaos_run(spec, [&](const core::Cluster& cluster) {
        marks_reused = cluster.metric_total("lgc.marks_reused");
      });
  EXPECT_GT(marks_reused, 0u);
  const obs::ReplayOutcome outcome = obs::replay_recording(bytes);
  ASSERT_TRUE(outcome.loaded) << outcome.error;
  EXPECT_FALSE(outcome.divergence.found) << outcome.report;
  EXPECT_TRUE(outcome.byte_identical) << outcome.report;
}

TEST(RecorderTest, ReplayCatchesInjectedPerturbation) {
  const obs::ReplayOutcome outcome = obs::replay_recording(
      default_recording(), /*threads=*/1, /*perturb_step=*/40);
  ASSERT_TRUE(outcome.loaded) << outcome.error;
  EXPECT_TRUE(outcome.divergence.found)
      << "an extra step at t>=40 must shift the event stream";
  EXPECT_FALSE(outcome.byte_identical);
  EXPECT_NE(outcome.report.find("DIVERGED"), std::string::npos);
  // The divergence carries full causal context for the report.
  EXPECT_NE(outcome.report.find("actual:"), std::string::npos);
}

TEST(RecorderTest, ReplayRejectsCorruptRecording) {
  std::string bytes = default_recording();
  bytes[bytes.size() / 3] ^= 0x01;
  const obs::ReplayOutcome outcome = obs::replay_recording(bytes);
  EXPECT_FALSE(outcome.loaded);
  EXPECT_FALSE(outcome.error.empty());
}

// ---- Bisection -------------------------------------------------------------

TEST(RecorderTest, BisectionReportsIdenticalRecordings) {
  const obs::BisectOutcome outcome =
      obs::bisect_divergence(default_run(), default_run());
  EXPECT_TRUE(outcome.identical);
  EXPECT_NE(outcome.report.find("identical"), std::string::npos);
}

TEST(RecorderTest, BisectionLandsOnTheExactMutatedEvent) {
  const RecordedRun& a = default_run();
  RecordedRun b = a;
  const std::size_t k = b.events.size() / 2;
  b.events[k].a ^= 0x1;  // single-field mutation at a known index

  const obs::BisectOutcome outcome = obs::bisect_divergence(a, b);
  EXPECT_FALSE(outcome.identical);
  EXPECT_EQ(outcome.index, k);
  EXPECT_EQ(outcome.seq, a.events[k].seq);
  EXPECT_GT(outcome.probes, 0u);  // it binary-searched, not scanned
  EXPECT_LE(outcome.probes, 64u);
}

TEST(RecorderTest, BisectionHandlesStrictPrefix) {
  const RecordedRun& a = default_run();
  RecordedRun b = a;
  const std::size_t k = b.events.size() - 3;
  b.events.resize(k);

  const obs::BisectOutcome outcome = obs::bisect_divergence(a, b);
  EXPECT_FALSE(outcome.identical);
  EXPECT_EQ(outcome.index, k);
  EXPECT_NE(outcome.report.find("only in A"), std::string::npos);
}

// ---- Satellite: quiescence gauges ------------------------------------------

TEST(RecorderTest, QuiescenceGaugesExported) {
  core::ClusterConfig cfg;
  cfg.net.seed = 7;
  core::Cluster cluster{cfg};
  for (int i = 0; i < 3; ++i) cluster.add_process();
  workload::MutatorSpec spec;
  spec.seed = 11;
  workload::RandomMutator mutator{cluster, spec};
  mutator.run(60);
  cluster.kill(cluster.process_ids()[2]);
  cluster.run_until_quiescent();

  const util::Metrics& m = cluster.network().metrics();
  EXPECT_EQ(m.gauge_value("cluster.quiescence_dead_pids"), 1u);
  EXPECT_EQ(m.gauge_value("cluster.quiescence_truncated"), 0u);
}

// ---- Recovery protocol in the timeline view ---------------------------------

TEST(RecorderTest, RecoveryProtocolEmitsTypedInstants) {
  ChaosRunSpec spec;
  spec.seed = 99;
  spec.processes = 6;
  spec.rounds = 40;
  const auto run = FlightRecorder::decode(obs::record_chaos_run(spec));
  ASSERT_TRUE(run.has_value());

  // Kills + restarts force the recovery protocol; its legs must show up in
  // the timeline as typed transport events (Recover/Rebind/PropSync).
  std::set<std::string_view> delivered;
  for (const obs::ViewEvent& ev : obs::timeline_events(*run)) {
    if (std::string_view{ev.name} == "net.deliver") {
      delivered.insert(run->kinds.at(ev.source->detail));
    }
  }
  EXPECT_TRUE(delivered.contains("Recover"))
      << "no Recover delivery across a kill/restart chaos run";
}

}  // namespace
}  // namespace rgc
