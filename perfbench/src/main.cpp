// perfbench — the collector's benchmark.
//
//   perfbench --workload <spanning_cycles|big_heap|graph_store> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--rev <id>]
//
// The seed generates kInputSets input sets.  One pass runs a repetition of
// the workload on each, every repetition in a child process of its own;
// passes repeat until --seconds have been spent.
// --trace 0 reports the end-to-end metrics of the untraced passes; --trace 1
// alternates untraced and traced passes and reports the per-layer metrics
// of the traced ones plus the tracing overhead.  Every repetition of an
// input set must produce the same deterministic counters, traced or not.
//
// Output: one JSON record line with the host facts and every figure, then
// as the last line {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "isolate.h"
#include "workloads.h"

namespace {

using perfbench::OpClass;
using perfbench::RepResult;
using Clock = std::chrono::steady_clock;

/// Input sets per run.  Taking the seed-dependent figures over many random
/// stores keeps them steady from one seed to the next: the tick p99 comes
/// from the heaviest few stores of a run, and it read about twice as
/// steady over 32 stores of 2,000 operations as over 16 of 4,000.
constexpr std::size_t kInputSets = 32;
/// On spanning_cycles and big_heap only the first kBulkReps repetitions of
/// a pass also build and collect the bulk heap: its inputs do not depend on
/// the seed, so a few repetitions give a steady median.
constexpr std::size_t kBulkReps = 5;
/// Never start a pass after this many seconds, whatever --seconds says.
constexpr double kHardStopS = 100;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string trace_out;
  std::string rev{"unknown"};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] [--rev <id>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else if (flag == "--rev") {
        a.rev = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// JSON number with every digit; non-finite values are not JSON.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Operation classes by the prefix their latency metrics carry.
constexpr std::pair<const char*, OpClass> kClassNames[] = {
    {"read", OpClass::kRead}, {"write", OpClass::kWrite}, {"tick", OpClass::kTick}};

struct Metric {
  double value;
  const char* unit;
};

using Reps = std::vector<const RepResult*>;

std::vector<double> values(const Reps& reps, double RepResult::*field) {
  std::vector<double> out;
  for (const RepResult* r : reps) out.push_back(r->*field);
  return out;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The repetitions whose measured phase is the workload's own: the bulk
/// GC on spanning_cycles and big_heap, the store everywhere else.
Reps measured(const Reps& reps, bool bulk) {
  Reps out;
  for (const RepResult* r : reps) {
    if (r->bulk == bulk) out.push_back(r);
  }
  return out;
}

/// `untraced` holds every untraced repetition; `first` the first pass, one
/// repetition per input set, whose deterministic figures stand for the run.
std::map<std::string, Metric> end_to_end(const Reps& untraced, const Reps& first,
                                         bool bulk,
                                         const perfbench::LatencyLog& lat) {
  using perfbench::median;
  using perfbench::percentile;
  double ops = 0;
  double client_s = 0;
  for (const RepResult* r : untraced) {
    ops += static_cast<double>(r->client_ops);
    client_s += r->client_s;
  }
  const Reps gc = measured(untraced, bulk);
  const Reps gc_first = measured(first, bulk);
  std::map<std::string, Metric> m;
  m["setup_s"] = {median(values(gc, &RepResult::setup_s)), "s"};
  m["gc_wall_s"] = {median(values(gc, &RepResult::gc_wall_s)), "s"};
  m["gc_weight_per_reclaimed"] = {
      median(values(gc_first, &RepResult::gc_weight_per_reclaimed)), "weight"};
  // Seed-dependent counts: pooled or averaged over the input sets, which
  // reads steadier from seed to seed than the median of per-set values.
  std::vector<std::uint64_t> reclaim;
  std::uint64_t reclaim_min = UINT64_MAX;
  std::uint64_t reclaim_max = 0;
  for (const RepResult* r : gc_first) {
    reclaim.resize(std::max(reclaim.size(), r->reclaim_latency_buckets.size()));
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < r->reclaim_latency_buckets.size(); ++i) {
      reclaim[i] += r->reclaim_latency_buckets[i];
      count += r->reclaim_latency_buckets[i];
    }
    if (count == 0) continue;
    reclaim_min = std::min(reclaim_min, r->reclaim_latency_min);
    reclaim_max = std::max(reclaim_max, r->reclaim_latency_max);
  }
  m["reclaim_latency_p99_steps"] = {
      perfbench::bucket_percentile(reclaim, reclaim_min, reclaim_max, 0.99), "steps"};
  m["floating_garbage"] = {mean(values(first, &RepResult::floating_garbage)),
                           "replicas"};
  m["ops_per_s"] = {ops / client_s, "ops/s"};
  for (const auto& [name, cls] : kClassNames) {
    m[std::string(name) + "_p50_ms"] = {percentile(lat.samples(cls), 0.50), "ms"};
    m[std::string(name) + "_p99_ms"] = {percentile(lat.samples(cls), 0.99), "ms"};
  }
  m["peak_rss_mb"] = {median(values(gc, &RepResult::peak_rss_mb)), "MiB"};
  return m;
}

/// Units of the per-layer metrics, by name suffix.
const char* layer_unit(const std::string& name) {
  if (name.ends_with("_per_s")) return "1/s";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_pct")) return "%";
  if (name.ends_with("_bytes")) return "bytes";
  if (name.ends_with("_per_cycle") || name.ends_with("_per_vertex")) return "ratio";
  if (name.ends_with("weight") || name.ends_with("_per_detection")) return "weight";
  if (name.ends_with("steps")) return "steps";
  return "count";
}

/// Per-layer metrics: each the mean over one traced pass's repetitions
/// (so counters repeat exactly), plus the tracing overhead.
std::map<std::string, Metric> per_layer(const Reps& untraced, const Reps& all_traced) {
  Reps traced;  // a crashed repetition (already a failure) has no layers
  for (const RepResult* r : all_traced) {
    if (!r->layers.empty()) traced.push_back(r);
  }
  if (traced.empty()) throw std::invalid_argument("no traced repetition finished");
  std::map<std::string, Metric> m;
  for (const auto& [name, value] : traced.front()->layers) {
    double sum = 0;
    for (const RepResult* r : traced) sum += r->layers.at(name);
    m[name] = {sum / static_cast<double>(traced.size()), layer_unit(name)};
  }
  const double t = mean(values(traced, &RepResult::timed_s));
  const double u = mean(values(untraced, &RepResult::timed_s));
  m["obs.trace_overhead_pct"] = {(t / u - 1) * 100, "%"};
  return m;
}

/// First key whose value differs between two fingerprints, or "".
std::string fingerprint_diff(const std::map<std::string, std::uint64_t>& a,
                             const std::map<std::string, std::uint64_t>& b) {
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || it->second != v) {
      return k + " " + std::to_string(v) + " vs " +
             (it == b.end() ? "absent" : std::to_string(it->second));
    }
  }
  for (const auto& [k, v] : b) {
    if (!a.contains(k)) return k + " absent vs " + std::to_string(v);
  }
  return "";
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += quote(name) + ": {\"value\": " + num(metric.value) +
           ", \"unit\": " + quote(metric.unit) + "}";
  }
  return out + "}";
}

std::string phases_json(const RepResult& r) {
  std::string out = "{";
  for (const auto& [phase, figures] : r.phases) {
    if (out.size() > 1) out += ", ";
    out += quote(phase) + ": {";
    bool first = true;
    for (const auto& [k, v] : figures) {
      out += (first ? "" : ", ") + quote(k) + ": " + num(v);
      first = false;
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::WorkloadSpec spec;
  try {
    spec = perfbench::spec_for(args.workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const bool bulk = spec.bulk != perfbench::WorkloadSpec::Bulk::kNone;
  std::vector<perfbench::Inputs> inputs;
  for (std::size_t j = 0; j < kInputSets; ++j) {
    inputs.push_back(perfbench::make_inputs(spec, args.seed * kInputSets + j));
  }

  // Passes: untraced first; in trace mode traced and untraced alternate.
  struct Pass {
    bool traced;
    std::vector<RepResult> reps;
  };
  std::vector<Pass> passes;
  std::size_t traced_passes = 0;
  perfbench::LatencyLog latency;
  double longest_pass_s = 0;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (;;) {
    const std::size_t untraced_passes = passes.size() - traced_passes;
    const bool enough = untraced_passes > 0 && (!args.trace || traced_passes > 0) &&
                        perfbench::reportable(latency.min_count(), 0.99);
    if (enough && elapsed() + longest_pass_s > args.seconds) break;
    if (elapsed() > kHardStopS) break;
    const auto pass_start = Clock::now();
    Pass pass{args.trace && traced_passes < untraced_passes, {}};
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      // Traced passes measure only what the per-layer metrics read.
      if (pass.traced && bulk && j >= kBulkReps) break;
      pass.reps.push_back(perfbench::run_isolated(
          spec, inputs[j], pass.traced, j < kBulkReps, args.trace_out));
      if (!pass.traced) latency.merge(pass.reps.back().latency);
    }
    traced_passes += pass.traced ? 1 : 0;
    passes.push_back(std::move(pass));
    longest_pass_s = std::max(
        longest_pass_s,
        std::chrono::duration<double>(Clock::now() - pass_start).count());
  }

  // ---- Correctness: checks passed, counters repeated exactly.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  Reps untraced;
  Reps traced;
  const Pass& reference = passes.front();
  for (const Pass& pass : passes) {
    for (std::size_t j = 0; j < pass.reps.size(); ++j) {
      const RepResult& r = pass.reps[j];
      (pass.traced ? traced : untraced).push_back(&r);
      attempted += r.attempted;
      failed += r.failed;
      for (const auto& f : r.failures) problems.push_back(f);
      const std::string diff =
          fingerprint_diff(reference.reps[j].fingerprint, r.fingerprint);
      if (!diff.empty()) {
        problems.push_back(std::string(pass.traced ? "traced replay" : "repetition") +
                           " of input set " + std::to_string(j) +
                           " diverged: " + diff);
      }
    }
  }
  if (!perfbench::reportable(latency.min_count(), 0.99)) {
    problems.push_back("too few samples for p99: " +
                       std::to_string(latency.min_count()));
  }

  Reps first;
  for (const RepResult& r : reference.reps) first.push_back(&r);
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  try {
    e2e = end_to_end(untraced, first, bulk, latency);
    if (args.trace) layers = per_layer(measured(untraced, bulk), measured(traced, bulk));
  } catch (const std::invalid_argument& e) {
    // Every repetition of a kind crashed: there is nothing to report.
    problems.push_back(std::string("no figures: ") + e.what());
  }
  for (const auto* m : {&e2e, &layers}) {
    for (const auto& [name, metric] : *m) {
      if (!std::isfinite(metric.value)) problems.push_back(name + " is not finite");
    }
  }
  const bool correct = problems.empty();

  // ---- The record: host facts, inputs, every figure, in-run spreads.
  std::ostringstream rec;
  rec << "{\"record\": \"perfbench\", \"workload\": " << quote(spec.name)
      << ", \"seed\": " << args.seed
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"threads\": " << spec.threads
      << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
      << ", \"rev\": " << quote(args.rev) << ", \"trace\": " << args.trace
      << ", \"input_sets\": " << kInputSets << ", \"passes\": " << passes.size()
      << ", \"traced_passes\": " << traced_passes
      << ", \"client_ops_per_rep\": " << inputs.front().ops.size()
      << ", \"samples\": {";
  for (const auto& [name, cls] : kClassNames) {
    const std::size_t n = latency.count(cls);
    rec << (cls == OpClass::kRead ? "" : ", ") << quote(name) << ": {\"count\": " << n
        << ", \"highest_percentile\": "
        << num(perfbench::highest_reportable_percentile(n)) << "}";
  }
  rec << "}";
  for (const auto& [name, field] :
       {std::pair{"setup_s", &RepResult::setup_s},
        std::pair{"gc_wall_s", &RepResult::gc_wall_s}}) {
    const std::vector<double> v = values(measured(untraced, bulk), field);
    const auto q = perfbench::quartiles(v);
    rec << ", \"" << name << "_iqr_pct\": "
        << num((q[1] - q[0]) / perfbench::median(v) * 100);
  }
  rec << ", \"phases\": " << phases_json(reference.reps.front())
      << ", \"end_to_end\": " << metrics_json(e2e);
  if (args.trace) rec << ", \"per_layer\": " << metrics_json(layers);
  rec << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    rec << (i == 0 ? "" : ", ") << quote(problems[i]);
  }
  rec << "]}";
  std::printf("%s\n", rec.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? layers : e2e).c_str());
  return 0;
}
