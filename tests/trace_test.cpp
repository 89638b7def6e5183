// Telemetry tests: metric handles, histograms, and the timeline view over
// the flight recorder — empty without a recorder, CDM lineage-tree
// invariants on real 3-process detections in both detector modes, live vs
// post-mortem agreement, and exporter well-formedness.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/report.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "util/bytes.h"
#include "util/metrics.h"
#include "workload/mesh.h"

namespace rgc {
namespace {

// ---------------------------------------------------------------------------
// Metric handles

TEST(MetricsTest, CounterHandleSharesStorageWithStringApi) {
  util::Metrics m;
  util::Counter c = m.counter("x");
  c.inc();
  c.inc(4);
  EXPECT_EQ(m.get("x"), 5u);
  m.counter("x").inc(2);
  EXPECT_EQ(c.value(), 7u);
}

TEST(MetricsTest, HandlesSurviveLaterRegistrationsAndReset) {
  util::Metrics m;
  util::Counter first = m.counter("a");
  // Force rebalancing pressure: many later registrations must not move the
  // node the handle points into.
  for (int i = 0; i < 100; ++i) {
    m.counter(std::string("k").append(std::to_string(i))).inc();
  }
  first.inc();
  EXPECT_EQ(m.get("a"), 1u);
  m.reset();
  EXPECT_EQ(first.value(), 0u);
  first.inc();
  EXPECT_EQ(m.get("a"), 1u);
}

TEST(MetricsTest, GaugeStoresLastValue) {
  util::Metrics m;
  util::Gauge g = m.gauge("depth");
  g.set(7);
  g.set(3);
  EXPECT_EQ(m.gauge_value("depth"), 3u);
}

TEST(MetricsTest, HistogramRecordsMomentsAndLog2Buckets) {
  util::Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 4.0);
  EXPECT_EQ(h.buckets()[0], 1u);  // value 0 (bit width 0)
  EXPECT_EQ(h.buckets()[1], 1u);  // value 1
  EXPECT_EQ(h.buckets()[3], 1u);  // 5 in [4,8)
  EXPECT_EQ(h.buckets()[7], 1u);  // 100 in [64,128)
  EXPECT_EQ(util::Histogram::bucket_floor(3), 4u);
  EXPECT_EQ(util::Histogram::bucket_floor(7), 64u);
}

TEST(MetricsTest, HistogramMergeCombinesDistributions) {
  util::Histogram a;
  util::Histogram b;
  a.record(2);
  a.record(9);
  b.record(1);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 9u);
  util::Histogram empty;
  a.merge(empty);  // merging an empty histogram must not disturb min
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.count(), 3u);
}

// ---------------------------------------------------------------------------
// Timeline view over the flight recorder

/// The decoded recording of `cluster` — the view's input, exactly what a
/// post-mortem `.rgcrec` decodes to.  Empty without a recorder.
obs::RecordedRun recording_of(const core::Cluster& cluster) {
  const obs::FlightRecorder* rec = cluster.recorder();
  if (rec == nullptr) return {};
  auto run = obs::FlightRecorder::decode(rec->encode(cluster.recorder_stamp()));
  EXPECT_TRUE(run.has_value());
  return run.value_or(obs::RecordedRun{});
}

/// Runs one cycle detection on an N-process ring mesh (the mesh's garbage
/// cycle spans every process) and returns its recording.
obs::RecordedRun run_detection(
    std::size_t processes,
    core::DetectorMode mode = core::DetectorMode::kReplicationAware,
    std::size_t record_capacity = 4096) {
  core::ClusterConfig cfg;
  cfg.mode = mode;
  cfg.record_capacity = record_capacity;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh =
      workload::build_mesh(cluster, {processes, /*deps=*/6});
  cluster.snapshot_all();
  cluster.detect(mesh.head_process, mesh.head);
  while (cluster.cycles_found().empty() && !cluster.network().idle()) {
    cluster.step();
  }
  EXPECT_FALSE(cluster.cycles_found().empty()) << "detection did not converge";
  cluster.run_until_quiescent();
  return recording_of(cluster);
}

std::string jsonl_of(const obs::RecordedRun& run) {
  std::ostringstream os;
  obs::write_timeline_jsonl(run, os);
  return os.str();
}

class TraceFixture : public ::testing::Test {};

TEST(TraceNullSinkTest, DisabledByDefaultAndEmitsNothing) {
  // record_capacity = 0 runs without a recorder: nothing to view.
  const obs::RecordedRun run =
      run_detection(3, core::DetectorMode::kReplicationAware, 0);
  EXPECT_TRUE(run.events.empty());
  EXPECT_TRUE(obs::timeline_events(run).empty());
  EXPECT_TRUE(jsonl_of(run).empty());
}

TEST_F(TraceFixture, InstantLineageIdsAreFreshAndReturned) {
  const obs::RecordedRun run = run_detection(3);
  const auto events = obs::timeline_events(run);
  std::set<std::uint64_t> ids;
  std::size_t instants = 0;
  for (const obs::ViewEvent& ev : events) {
    if (ev.source == nullptr) {
      EXPECT_EQ(ev.id, 0u) << "counter samples carry no lineage id";
      continue;
    }
    ++instants;
    EXPECT_NE(ev.id, 0u) << ev.name;
    EXPECT_EQ(ev.id, ev.source->seq + 1);
    EXPECT_TRUE(ids.insert(ev.id).second) << "duplicate id " << ev.id;
  }
  EXPECT_EQ(instants, run.events.size());
}

// ---------------------------------------------------------------------------
// CDM lineage on a real detection

TEST_F(TraceFixture, DetectionEmitsWellFormedCdmLineageTree) {
  for (const auto mode :
       {core::DetectorMode::kReplicationAware, core::DetectorMode::kBaseline}) {
    SCOPED_TRACE(mode == core::DetectorMode::kBaseline ? "baseline" : "ours");
    const obs::RecordedRun run = run_detection(3, mode);
    if (HasFailure()) return;
    const auto events = obs::timeline_events(run);

    // Every causal parent refers to an event that *precedes* it.
    std::map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].id != 0) index_of[events[i].id] = i;
    }
    std::size_t causal_edges = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].parent == 0) continue;
      ++causal_edges;
      auto it = index_of.find(events[i].parent);
      ASSERT_NE(it, index_of.end())
          << events[i].name << " references unknown parent";
      EXPECT_LT(it->second, i) << events[i].name << " precedes its parent";
    }
    EXPECT_GT(causal_edges, 0u);

    // The detection must leave a verdict whose chain walks back through
    // CDM hops to the detection's root, crossing at least two processes.
    const obs::ViewEvent* detected = nullptr;
    for (const auto& ev : events) {
      if (std::string_view{ev.name} == "cycle.detected") detected = &ev;
    }
    ASSERT_NE(detected, nullptr);
    ASSERT_NE(detected->parent, 0u) << "verdict must name the closing CDM";

    std::set<std::uint32_t> chain_procs{detected->proc};
    std::set<std::string> chain_names;
    const obs::ViewEvent* cur = detected;
    std::size_t hops = 0;
    while (cur->parent != 0) {
      ASSERT_LT(++hops, 10000u) << "lineage chain does not terminate";
      cur = &events[index_of.at(cur->parent)];
      chain_procs.insert(cur->proc);
      chain_names.insert(cur->name);
    }
    EXPECT_STREQ(cur->name, "cdm.start") << "chain must root at the detection";
    EXPECT_GE(chain_procs.size(), 2u) << "lineage must cross processes";
    // The ring forces at least one remote hop, so a send and a receive must
    // both appear on the winning track.
    EXPECT_TRUE(chain_names.contains("cdm.recv"));
    EXPECT_TRUE(chain_names.contains("cdm.send"));
  }
}

TEST_F(TraceFixture, LiveAndPostMortemRecordingsRenderTheSameView) {
  core::ClusterConfig cfg;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(cluster, {3, 6});
  cluster.snapshot_all();
  cluster.detect(mesh.head_process, mesh.head);
  cluster.run_until_quiescent();
  const obs::RecordedRun live = recording_of(cluster);
  EXPECT_GT(obs::timeline_events(live).size(), live.events.size())
      << "transport steps add queue-depth samples";
  EXPECT_EQ(live.events.size(), cluster.recorder()->depth());

  const std::string path = ::testing::TempDir() + "trace_test_view.rgcrec";
  ASSERT_TRUE(obs::dump_recording(*cluster.recorder(),
                                  cluster.recorder_stamp(), path));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  const auto dumped = obs::FlightRecorder::decode(bytes);
  ASSERT_TRUE(dumped.has_value());
  EXPECT_EQ(jsonl_of(*dumped), jsonl_of(live));
}

TEST_F(TraceFixture, VersionOneRecordingIsRejected) {
  core::Cluster cluster;
  workload::build_mesh(cluster, {3, 4});
  cluster.snapshot_all();
  std::string bytes = cluster.recorder()->encode(cluster.recorder_stamp());
  ASSERT_TRUE(obs::FlightRecorder::decode(bytes).has_value());
  // Rewrite the header's version field to 1 and re-seal the checksum, so
  // only the version makes the file unreadable.
  bytes.resize(bytes.size() - 8);
  const std::uint32_t v1 = 1;
  bytes.replace(4, 4, reinterpret_cast<const char*>(&v1), 4);
  util::put_u64(bytes, util::fnv1a(bytes));
  EXPECT_FALSE(obs::FlightRecorder::decode(bytes).has_value());
}

// ---------------------------------------------------------------------------
// Exporters

/// Validates JSON nesting outside string literals; returns true when every
/// brace/bracket closes and the text ends at depth zero.
bool balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST_F(TraceFixture, JsonlExportIsOneValidObjectPerLine) {
  const obs::RecordedRun run = run_detection(3);
  const std::string text = jsonl_of(run);
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_TRUE(balanced_json(line)) << line;
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    EXPECT_NE(line.find("\"step\":"), std::string::npos);
    EXPECT_EQ(line.find("wall_us"), std::string::npos);
  }
  EXPECT_EQ(count, obs::timeline_events(run).size());
}

TEST_F(TraceFixture, ChromeTraceExportIsWellFormedAndCarriesLineage) {
  const obs::RecordedRun run = run_detection(3);
  std::ostringstream os;
  obs::write_timeline_chrome(run, os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(balanced_json(text));
  // Slices, flow arrows (the lineage rendering), and track names.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("cdm.start"), std::string::npos);
  EXPECT_NE(text.find("cycle.detected"), std::string::npos);
}

TEST_F(TraceFixture, FullGcTimelineHasSpansAndReportJsonIsBalanced) {
  core::ClusterConfig cfg;
  core::Cluster cluster{cfg};
  workload::build_mesh(cluster, {3, 4});
  cluster.run_full_gc();
  EXPECT_EQ(cluster.total_objects(), 0u);

  // The GC's phases show up as phase events: collection rounds and
  // snapshot sweeps, plus per-process sweeps.
  const obs::RecordedRun run = recording_of(cluster);
  std::set<std::uint16_t> phases;
  bool sweep = false;
  for (const obs::ViewEvent& ev : obs::timeline_events(run)) {
    const std::string_view name{ev.name};
    if (name == "phase") phases.insert(ev.source->detail);
    sweep = sweep || name == "sweep";
  }
  EXPECT_TRUE(phases.contains(obs::kPhaseCollectRound));
  EXPECT_TRUE(phases.contains(obs::kPhaseSnapshotAll));
  EXPECT_TRUE(sweep);

  const core::ClusterReport report = core::make_report(cluster);
  const std::string json = report.to_json();
  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("cdm.hops"), std::string::npos);
}

}  // namespace
}  // namespace rgc
