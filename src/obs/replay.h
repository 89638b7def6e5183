// Deterministic replay & divergence bisection over flight recordings
// (docs/OBSERVABILITY.md "Flight recorder & replay").
//
// record_chaos_run() executes the canonical seeded fault-chaos workload —
// a leased cluster under random mutation + the GC daemon with a seeded
// workload::FaultPlan firing kills/restarts/partitions/heals, the same
// shape as tests/chaos_test.cpp's acceptance run — with the flight
// recorder on, and returns the encoded `.rgcrec` bytes.  replay_recording()
// re-runs the workload described by a recording's stamp while diffing the
// live event stream against it: a deterministic simulator must reproduce
// the recording byte for byte, so the first mismatched event IS the first
// point where determinism (or the code under test) broke.
// bisect_divergence() narrows two decoded recordings of the same run to
// their first divergent global event index by binary search over prefix
// hashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/recorder.h"

namespace rgc::core {
class Cluster;
}  // namespace rgc::core

namespace rgc::obs {

/// The canonical recorded workload.  Everything except `threads` and
/// `perturb_step` is captured in the RecStamp; threads is excluded on
/// purpose (recordings are byte-identical for any thread count) and
/// perturb_step exists only to inject a divergence on demand.
struct ChaosRunSpec {
  std::uint64_t seed{2024};
  std::uint32_t processes{16};
  double drop{0.0};
  double dup{0.0};
  std::uint32_t max_delay{2};
  std::uint64_t lease_timeout{48};
  std::uint32_t rounds{60};
  std::uint32_t ring_capacity{4096};
  std::size_t threads{1};
  /// Test hook: once the cluster clock reaches this step, run one extra
  /// cluster.step() at the next round boundary — a minimal, realistic
  /// nondeterminism (perturbed delivery timing).  0 = off.
  std::uint64_t perturb_step{0};
  /// When set, the run dumps its recording here on an audit ERROR
  /// (ClusterConfig::record_dump_path) and on SIGABRT (arm_abort_dump), so a
  /// crashed recording session still leaves a .rgcrec behind.  Not part of
  /// the stamp.
  std::string dump_path{};
};

/// Stamp <-> spec conversion (drop/dup round-trip exactly via bit pattern).
[[nodiscard]] RecStamp stamp_of(const ChaosRunSpec& spec);
[[nodiscard]] ChaosRunSpec spec_of(const RecStamp& stamp);

/// Reads the finished cluster of a recorded run (its metrics, say) before
/// it is torn down.
using ChaosRunInspector = std::function<void(const core::Cluster&)>;

/// Runs the workload with recording on; returns encoded `.rgcrec` bytes.
[[nodiscard]] std::string record_chaos_run(
    const ChaosRunSpec& spec, const ChaosRunInspector& inspect = {});

struct ReplayOutcome {
  bool loaded{false};
  std::string error;  // set when !loaded (undecodable recording)
  /// The replayed run re-encoded to exactly the reference bytes.
  bool byte_identical{false};
  /// First live event that contradicted the reference (found=false when
  /// the streams matched event for event).
  Divergence divergence;
  /// Human-readable report: verdict, and on divergence the expected vs
  /// actual events with full causal context (pid, step, kind, lineage).
  std::string report;
  /// The replay's own encoded recording (for bisection against the
  /// reference).
  std::string live_bytes;
};

/// Decodes `recorded_bytes`, re-runs the stamped workload with the
/// reference installed, and reports the first divergence (if any).
/// `threads` overrides the worker-pool width — recordings are
/// thread-count independent, so any value must still replay identically.
[[nodiscard]] ReplayOutcome replay_recording(const std::string& recorded_bytes,
                                             std::size_t threads = 1,
                                             std::uint64_t perturb_step = 0);

struct BisectOutcome {
  /// True when the two recordings' merged event streams are identical.
  bool identical{true};
  /// Index (into RecordedRun::events) of the first divergent event.
  std::size_t index{0};
  /// Global seq of that event (from whichever stream has it).
  std::uint64_t seq{0};
  /// Binary-search probes spent.
  std::size_t probes{0};
  std::string report;
};

/// Binary-searches prefix hashes of the two merged event streams for the
/// first index where they disagree — O(n) hashing once, O(log n) probes.
[[nodiscard]] BisectOutcome bisect_divergence(const RecordedRun& a,
                                              const RecordedRun& b);

}  // namespace rgc::obs
