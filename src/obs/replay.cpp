#include "obs/replay.h"

#include <bit>
#include <vector>

#include "core/cluster.h"
#include "core/daemon.h"
#include "obs/timeline.h"
#include "util/bytes.h"
#include "util/log.h"
#include "workload/fault_plan.h"
#include "workload/random_mutator.h"

namespace rgc::obs {

namespace {

/// The chaos workload's delay floor (NetworkConfig::min_delay).
constexpr std::uint32_t kChaosMinDelay = 1;

/// Runs the canonical chaos workload (the shape of chaos_test's
/// run_fault_chaos, minus the oracle/GC-until-dry tail) with recording on.
/// Returns the recorder's encoded bytes; `reference`/`out` feed the live
/// diff when replaying, and `inspect` (when set) sees the finished cluster.
std::string run_chaos(const ChaosRunSpec& spec, const RecordedRun* reference,
                      Divergence* out_divergence,
                      const ChaosRunInspector& inspect = {}) {
  core::ClusterConfig cfg;
  cfg.net.seed = spec.seed;
  cfg.net.drop_probability = spec.drop;
  cfg.net.duplicate_probability = spec.dup;
  cfg.net.min_delay = kChaosMinDelay;
  cfg.net.max_delay = spec.max_delay;
  cfg.lease_timeout = spec.lease_timeout;
  cfg.threads = spec.threads;
  cfg.record_capacity = spec.ring_capacity;
  cfg.record_dump_path = spec.dump_path;
  core::Cluster cluster{cfg};
  for (std::uint32_t i = 0; i < spec.processes; ++i) cluster.add_process();
  FlightRecorder* recorder = cluster.recorder();
  if (reference != nullptr) recorder->set_reference(reference);
  if (!spec.dump_path.empty()) {
    arm_abort_dump(recorder, stamp_of(spec), spec.dump_path);
  }

  workload::FaultPlanSpec plan_spec;
  plan_spec.seed = spec.seed * 31 + 7;
  plan_spec.kills = 4;
  plan_spec.partitions = 1;
  plan_spec.start = 24;
  plan_spec.horizon = 360;
  const auto plan =
      workload::FaultPlan::random(cluster.process_ids(), plan_spec);
  workload::FaultPlanRunner runner{cluster, plan};

  workload::MutatorSpec mut_spec;
  mut_spec.seed = spec.seed * 7919 + 31;
  mut_spec.w_collect = 0;  // the daemon collects
  mut_spec.w_step = 5;
  workload::RandomMutator mutator{cluster, mut_spec};
  core::GcDaemon daemon{cluster};

  bool perturbed = false;
  for (std::uint32_t round = 0; round < spec.rounds; ++round) {
    if (spec.perturb_step != 0 && !perturbed &&
        cluster.now() >= spec.perturb_step) {
      // The injected nondeterminism: one extra step shifts every later
      // delivery, which the diff against the reference must catch.
      cluster.step();
      perturbed = true;
    }
    mutator.run(12);
    daemon.run(3);
    runner.poll();
    if (runner.done() && cluster.now() > plan_spec.start + plan_spec.horizon) {
      break;
    }
  }
  runner.finish();  // heal + restart everyone: end of chaos
  cluster.run_until_quiescent();

  if (!spec.dump_path.empty()) arm_abort_dump(nullptr, {}, {});
  if (out_divergence != nullptr) *out_divergence = recorder->divergence();
  if (inspect) inspect(cluster);
  return recorder->encode(stamp_of(spec));
}

}  // namespace

RecStamp stamp_of(const ChaosRunSpec& spec) {
  RecStamp stamp;
  stamp.seed = spec.seed;
  stamp.processes = spec.processes;
  stamp.drop_bits = std::bit_cast<std::uint64_t>(spec.drop);
  stamp.dup_bits = std::bit_cast<std::uint64_t>(spec.dup);
  stamp.max_delay = spec.max_delay;
  stamp.lease_timeout = spec.lease_timeout;
  stamp.rounds = spec.rounds;
  stamp.capacity = spec.ring_capacity;
  stamp.min_delay = kChaosMinDelay;
  return stamp;
}

ChaosRunSpec spec_of(const RecStamp& stamp) {
  ChaosRunSpec spec;
  spec.seed = stamp.seed;
  spec.processes = stamp.processes;
  spec.drop = std::bit_cast<double>(stamp.drop_bits);
  spec.dup = std::bit_cast<double>(stamp.dup_bits);
  spec.max_delay = stamp.max_delay;
  spec.lease_timeout = stamp.lease_timeout;
  spec.rounds = stamp.rounds;
  spec.ring_capacity = stamp.capacity;
  return spec;
}

std::string record_chaos_run(const ChaosRunSpec& spec,
                             const ChaosRunInspector& inspect) {
  return run_chaos(spec, nullptr, nullptr, inspect);
}

ReplayOutcome replay_recording(const std::string& recorded_bytes,
                               std::size_t threads,
                               std::uint64_t perturb_step) {
  ReplayOutcome out;
  const auto reference = FlightRecorder::decode(recorded_bytes);
  if (!reference.has_value()) {
    out.error = "recording is corrupt or not a .rgcrec file";
    out.report = out.error;
    return out;
  }
  out.loaded = true;

  ChaosRunSpec spec = spec_of(reference->stamp);
  spec.threads = threads == 0 ? 1 : threads;
  spec.perturb_step = perturb_step;
  out.live_bytes = run_chaos(spec, &*reference, &out.divergence);
  out.byte_identical = out.live_bytes == recorded_bytes;

  std::string report;
  report += "replay: seed=" + std::to_string(spec.seed) +
            " processes=" + std::to_string(spec.processes) +
            " rounds=" + std::to_string(spec.rounds) +
            " threads=" + std::to_string(spec.threads) + "\n";
  report += "recorded events=" + std::to_string(reference->appended) +
            " (retained " + std::to_string(reference->events.size()) +
            ", ring-dropped " + std::to_string(reference->dropped) + ")\n";
  if (out.divergence.found) {
    const auto& d = out.divergence;
    report += "DIVERGED at seq=" + std::to_string(d.seq) + "\n";
    if (d.extra) {
      report += "  expected: <end of recording>\n";
    } else {
      report += "  expected: " + describe(d.expected, reference->kinds) + "\n";
    }
    // The live run interned kinds in the same order until the divergence,
    // so the reference table names the actual event correctly too.
    report += "  actual:   " + describe(d.actual, reference->kinds) + "\n";
  } else if (out.byte_identical) {
    report += "byte-identical: the run reproduced the recording exactly\n";
  } else {
    report +=
        "events matched but bytes differ (stamp or ring-capacity "
        "mismatch?)\n";
  }
  out.report = report;
  return out;
}

BisectOutcome bisect_divergence(const RecordedRun& a, const RecordedRun& b) {
  BisectOutcome out;
  const std::size_t na = a.events.size();
  const std::size_t nb = b.events.size();
  const std::size_t n = std::min(na, nb);

  // Prefix hashes: prefix[i] covers events [0, i).  One O(n) pass buys
  // O(1) "do the first i events match?" probes for the binary search.
  std::vector<std::uint64_t> pa(n + 1), pb(n + 1);
  pa[0] = pb[0] = util::kFnvOffset;
  std::string buf;
  const auto hash = [&buf](std::uint64_t h, const RecEvent& e) {
    buf.clear();
    encode_event(buf, e);
    return util::fnv1a(buf, h);
  };
  for (std::size_t i = 0; i < n; ++i) {
    pa[i + 1] = hash(pa[i], a.events[i]);
    pb[i + 1] = hash(pb[i], b.events[i]);
  }

  if (pa[n] == pb[n]) {
    if (na == nb) {
      out.identical = true;
      out.report = "recordings are identical (" + std::to_string(na) +
                   " events)";
      return out;
    }
    // One stream is a strict prefix of the other: first divergence is the
    // first event past the common prefix.
    out.identical = false;
    out.index = n;
    const RecordedRun& longer = na > nb ? a : b;
    out.seq = longer.events[n].seq;
    out.report = "first divergence at event index " + std::to_string(n) +
                 " (one recording ends here)\n  " +
                 (na > nb ? "only in A: " : "only in B: ") +
                 describe(longer.events[n], longer.kinds);
    return out;
  }

  std::size_t lo = 0;  // prefix of length lo matches
  std::size_t hi = n;  // prefix of length hi differs
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++out.probes;
    (pa[mid] == pb[mid] ? lo : hi) = mid;
  }
  out.identical = false;
  out.index = lo;  // events[lo] is the first that differs
  out.seq = a.events[lo].seq;
  out.report = "first divergence at event index " + std::to_string(lo) +
               " (seq=" + std::to_string(a.events[lo].seq) + ", " +
               std::to_string(out.probes) + " probes)\n  A: " +
               describe(a.events[lo], a.kinds) + "\n  B: " +
               describe(b.events[lo], b.kinds);
  return out;
}

}  // namespace rgc::obs
