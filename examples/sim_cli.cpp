// rgc simulator CLI — parameterized scalability runs from the shell.
//
//   $ ./example_sim_cli --processes 4 --deps 50 --mode both --report
//   $ ./example_sim_cli --processes 3 --full-gc --trace-out=run.json
//
// Builds the §5.2 triangle-mesh ring, runs one cycle detection (ours,
// baseline, or both), prints steps/CDM totals, and optionally a full
// cluster state report.  With --trace-out / --trace-jsonl the run writes
// the timeline view of its flight recording (CDM lineage, transport, GC
// phases, queue depth — see docs/OBSERVABILITY.md); with --mode both the
// files hold the *last* run.  --record, --replay, --bisect and --watch
// refuse output flags they do not write (usage, exit 2).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "core/report.h"
#include "obs/dashboard.h"
#include "obs/health.h"
#include "obs/ledger.h"
#include "obs/prom.h"
#include "obs/recorder.h"
#include "obs/replay.h"
#include "obs/timeline.h"
#include "workload/mesh.h"

using namespace rgc;

namespace {

struct Options {
  std::size_t processes{4};
  std::size_t deps{10};
  std::size_t extra_replicas{0};
  std::string mode{"both"};     // ours | baseline | both
  std::uint64_t seed{1};
  bool report{false};
  bool full_gc{false};
  std::string trace_out;    // Chrome trace_event JSON (chrome://tracing)
  std::string trace_jsonl;  // one event object per line
  std::string report_json;  // machine-readable ClusterReport
  std::string prom_out;     // Prometheus text exposition
  std::uint64_t audit_interval{64};  // health-audit cadence; 0 disables
  bool watch{false};                 // live dashboard mode
  std::uint64_t watch_steps{256};    // steps to run in watch mode
  std::uint64_t watch_every{16};     // render a frame every N steps
  std::uint64_t watch_delay_ms{0};   // sleep between frames (demo pacing)
  // Flight recorder / replay (docs/OBSERVABILITY.md "Flight recorder &
  // replay").  --record runs the seeded fault-chaos workload and writes the
  // .rgcrec recording; --replay re-runs a recording and diffs; --bisect
  // narrows two recordings to their first divergent event.
  std::string record_out;            // .rgcrec to write
  std::string replay_in;             // .rgcrec to replay against
  std::string bisect_files;          // "A.rgcrec,B.rgcrec"
  // Network faults: the --record chaos workload defaults them to 0, 0
  // and 2; the other runs apply only the ones given (the network's own
  // defaults are 0, 0 and 1).
  std::optional<double> drop;            // drop probability
  std::optional<double> dup;             // duplicate probability
  std::optional<std::uint32_t> max_delay;  // max delivery delay
  std::uint32_t rounds{60};          // chaos workload rounds
  std::uint32_t record_capacity{4096};  // recorder ring capacity
  std::size_t threads{1};            // worker-pool width for replay
  std::uint64_t perturb_step{0};     // inject divergence at this step
  // Cost ledger (docs/OBSERVABILITY.md "Cycle cost ledger"): --explain-cycle
  // prints a proven cycle's hop-by-hop critical path (id 0 / bare flag =
  // the slowest completed cycle); --ledger-jsonl exports every completed
  // entry as one JSON object per line.
  bool explain_cycle{false};
  std::uint64_t explain_cycle_id{0};
  std::string ledger_jsonl;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--processes N] [--deps D] [--extra-replicas B]\n"
      "          [--mode ours|baseline|both]\n"
      "          [--seed S] [--full-gc] [--report]\n"
      "          [--trace-out=FILE] [--trace-jsonl=FILE] "
      "[--report-json=FILE]\n"
      "          [--prom-out=FILE] [--audit-interval N]\n"
      "          [--watch] [--watch-steps N] [--watch-every N] "
      "[--watch-delay-ms M]\n"
      "          [--record=FILE.rgcrec] [--replay=FILE.rgcrec] "
      "[--bisect=A.rgcrec,B.rgcrec]\n"
      "          [--drop P] [--dup P] [--max-delay N] [--rounds N]\n"
      "          [--record-capacity N] [--threads N] [--perturb-step S]\n"
      "          [--explain-cycle[=ID]] [--ledger-jsonl=FILE]\n",
      argv0);
}

/// The flag that selects the run main() dispatches to, or "" for the mesh
/// runs.
const char* run_kind(const Options& opt) {
  if (!opt.record_out.empty()) return "--record";
  if (!opt.replay_in.empty()) return "--replay";
  if (!opt.bisect_files.empty()) return "--bisect";
  if (opt.watch) return "--watch";
  return "";
}

/// The first output flag given that the selected run does not write, or
/// null.  The mesh runs write every output; --watch writes --prom-out
/// only; --record, --replay and --bisect write none of them.
const char* unwritten_output(const Options& opt) {
  const std::string_view kind = run_kind(opt);
  if (kind.empty()) return nullptr;
  const std::pair<bool, const char*> outputs[] = {
      {!opt.trace_out.empty(), "--trace-out"},
      {!opt.trace_jsonl.empty(), "--trace-jsonl"},
      {!opt.report_json.empty(), "--report-json"},
      {!opt.ledger_jsonl.empty(), "--ledger-jsonl"},
      {opt.explain_cycle, "--explain-cycle"},
      {opt.report, "--report"},
      {!opt.prom_out.empty() && kind != "--watch", "--prom-out"},
  };
  for (const auto& [given, flag] : outputs) {
    if (given) return flag;
  }
  return nullptr;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // --flag=value spelling: split so every option accepts both forms.
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
      has_inline = true;
    }
    auto value = [&]() -> const char* {
      return has_inline ? inline_value.c_str() : next();
    };
    if (arg == "--processes") {
      const char* v = value();
      if (!v) return false;
      opt.processes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--deps") {
      const char* v = value();
      if (!v) return false;
      opt.deps = std::strtoull(v, nullptr, 10);
    } else if (arg == "--extra-replicas") {
      const char* v = value();
      if (!v) return false;
      opt.extra_replicas = std::strtoull(v, nullptr, 10);
    } else if (arg == "--mode") {
      const char* v = value();
      if (!v) return false;
      opt.mode = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return false;
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (!v) return false;
      opt.trace_out = v;
    } else if (arg == "--trace-jsonl") {
      const char* v = value();
      if (!v) return false;
      opt.trace_jsonl = v;
    } else if (arg == "--report-json") {
      const char* v = value();
      if (!v) return false;
      opt.report_json = v;
    } else if (arg == "--prom-out") {
      const char* v = value();
      if (!v) return false;
      opt.prom_out = v;
    } else if (arg == "--audit-interval") {
      const char* v = value();
      if (!v) return false;
      opt.audit_interval = std::strtoull(v, nullptr, 10);
    } else if (arg == "--watch-steps") {
      const char* v = value();
      if (!v) return false;
      opt.watch_steps = std::strtoull(v, nullptr, 10);
    } else if (arg == "--watch-every") {
      const char* v = value();
      if (!v) return false;
      opt.watch_every = std::strtoull(v, nullptr, 10);
      if (opt.watch_every == 0) opt.watch_every = 1;
    } else if (arg == "--watch-delay-ms") {
      const char* v = value();
      if (!v) return false;
      opt.watch_delay_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--record") {
      const char* v = value();
      if (!v) return false;
      opt.record_out = v;
    } else if (arg == "--replay") {
      const char* v = value();
      if (!v) return false;
      opt.replay_in = v;
    } else if (arg == "--bisect") {
      const char* v = value();
      if (!v) return false;
      opt.bisect_files = v;
    } else if (arg == "--drop") {
      const char* v = value();
      if (!v) return false;
      opt.drop = std::strtod(v, nullptr);
    } else if (arg == "--dup") {
      const char* v = value();
      if (!v) return false;
      opt.dup = std::strtod(v, nullptr);
    } else if (arg == "--max-delay") {
      const char* v = value();
      if (!v) return false;
      opt.max_delay = static_cast<std::uint32_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--rounds") {
      const char* v = value();
      if (!v) return false;
      opt.rounds = static_cast<std::uint32_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--record-capacity") {
      const char* v = value();
      if (!v) return false;
      opt.record_capacity =
          static_cast<std::uint32_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--threads") {
      const char* v = value();
      if (!v) return false;
      opt.threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--perturb-step") {
      const char* v = value();
      if (!v) return false;
      opt.perturb_step = std::strtoull(v, nullptr, 10);
    } else if (arg == "--explain-cycle") {
      // Bare flag (or id 0) explains the slowest completed cycle.
      opt.explain_cycle = true;
      if (has_inline) {
        opt.explain_cycle_id = std::strtoull(inline_value.c_str(), nullptr, 10);
      }
    } else if (arg == "--ledger-jsonl") {
      const char* v = value();
      if (!v) return false;
      opt.ledger_jsonl = v;
    } else if (arg == "--watch") {
      opt.watch = true;
    } else if (arg == "--report") {
      opt.report = true;
    } else if (arg == "--full-gc") {
      opt.full_gc = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.mode != "ours" && opt.mode != "baseline" && opt.mode != "both") {
    std::fprintf(stderr, "unknown --mode: %s\n", opt.mode.c_str());
    return false;
  }
  if (const char* flag = unwritten_output(opt)) {
    std::fprintf(stderr, "%s is not written by %s\n", flag, run_kind(opt));
    return false;
  }
  return opt.processes >= 2 && opt.deps >= 1;
}

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body,
                const char* what) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for %s\n", path.c_str(), what);
    return false;
  }
  body(os);
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out.assign(std::istreambuf_iterator<char>(is),
             std::istreambuf_iterator<char>());
  return true;
}

obs::ChaosRunSpec chaos_spec(const Options& opt) {
  obs::ChaosRunSpec spec;
  spec.seed = opt.seed;
  spec.processes = static_cast<std::uint32_t>(opt.processes);
  spec.drop = opt.drop.value_or(0.0);
  spec.dup = opt.dup.value_or(0.0);
  spec.max_delay = opt.max_delay.value_or(2);
  spec.rounds = opt.rounds;
  spec.ring_capacity = opt.record_capacity;
  spec.threads = opt.threads;
  spec.perturb_step = opt.perturb_step;
  return spec;
}

/// --record: run the seeded fault-chaos workload with the flight recorder
/// on and write the .rgcrec.  The run also dumps to the same path early on
/// an audit ERROR or SIGABRT, so a crashed session still leaves evidence.
int run_record(const Options& opt) {
  obs::ChaosRunSpec spec = chaos_spec(opt);
  spec.dump_path = opt.record_out;
  const std::string bytes = obs::record_chaos_run(spec);
  std::ofstream os(opt.record_out, std::ios::binary);
  if (!os || !os.write(bytes.data(),
                       static_cast<std::streamsize>(bytes.size()))) {
    std::fprintf(stderr, "cannot write %s\n", opt.record_out.c_str());
    return 1;
  }
  const auto run = obs::FlightRecorder::decode(bytes);
  std::printf("recorded %zu bytes to %s (seed=%llu processes=%zu "
              "events=%llu retained=%zu)\n",
              bytes.size(), opt.record_out.c_str(),
              static_cast<unsigned long long>(spec.seed), opt.processes,
              static_cast<unsigned long long>(run ? run->appended : 0),
              run ? run->events.size() : 0);
  return 0;
}

/// --replay: re-run the workload stamped into the recording and diff the
/// live event stream against it.  Exit 0 on byte-identical, 4 on
/// divergence, 1 on a corrupt recording.
int run_replay(const Options& opt) {
  std::string bytes;
  if (!read_file(opt.replay_in, bytes)) return 1;
  const obs::ReplayOutcome outcome =
      obs::replay_recording(bytes, opt.threads, opt.perturb_step);
  std::fputs(outcome.report.c_str(), stdout);
  if (!outcome.loaded) return 1;
  return outcome.divergence.found || !outcome.byte_identical ? 4 : 0;
}

/// --bisect A,B: narrow two recordings of the same run to their first
/// divergent event.  Exit 0 when identical, 4 when divergent.
int run_bisect(const Options& opt) {
  const auto comma = opt.bisect_files.find(',');
  if (comma == std::string::npos) {
    std::fprintf(stderr, "--bisect wants two files: A.rgcrec,B.rgcrec\n");
    return 2;
  }
  std::string bytes_a;
  std::string bytes_b;
  if (!read_file(opt.bisect_files.substr(0, comma), bytes_a) ||
      !read_file(opt.bisect_files.substr(comma + 1), bytes_b)) {
    return 1;
  }
  const auto a = obs::FlightRecorder::decode(bytes_a);
  const auto b = obs::FlightRecorder::decode(bytes_b);
  if (!a || !b) {
    std::fprintf(stderr, "corrupt recording: %s\n",
                 !a ? opt.bisect_files.substr(0, comma).c_str()
                    : opt.bisect_files.substr(comma + 1).c_str());
    return 1;
  }
  const obs::BisectOutcome outcome = obs::bisect_divergence(*a, *b);
  std::printf("%s\n", outcome.report.c_str());
  return outcome.identical ? 0 : 4;
}

/// The network faults the command line gave; unset ones keep the default.
void apply_net_flags(const Options& opt, net::NetworkConfig& net) {
  if (opt.drop) net.drop_probability = *opt.drop;
  if (opt.dup) net.duplicate_probability = *opt.dup;
  if (opt.max_delay) net.max_delay = *opt.max_delay;
}

int run_one(const Options& opt, core::DetectorMode mode, const char* name) {
  core::ClusterConfig cfg;
  cfg.mode = mode;
  cfg.net.seed = opt.seed;
  apply_net_flags(opt, cfg.net);
  cfg.record_capacity = opt.record_capacity;
  cfg.audit_interval = opt.audit_interval;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(
      cluster, {opt.processes, opt.deps, opt.extra_replicas});

  const std::uint64_t cdm_before = cluster.network().total_sent("CDM");
  std::uint64_t steps = 0;
  bool converged = false;
  core::QuiescenceStatus drain;

  if (opt.full_gc) {
    const std::uint64_t start = cluster.now();
    const auto stats = cluster.run_full_gc();
    steps = cluster.now() - start;
    converged = cluster.total_objects() == 0;
    drain = cluster.run_until_quiescent();
    std::printf("%-9s full gc: rounds=%llu detections=%llu\n", name,
                static_cast<unsigned long long>(stats.rounds),
                static_cast<unsigned long long>(stats.detections_started));
  } else {
    cluster.snapshot_all();
    const std::uint64_t start = cluster.now();
    cluster.detect(mesh.head_process, mesh.head);
    while (cluster.cycles_found().empty() && !cluster.network().idle()) {
      cluster.step();
    }
    steps = cluster.now() - start;
    converged = !cluster.cycles_found().empty();
    drain = cluster.run_until_quiescent();
  }

  std::printf(
      "%-9s steps=%-6llu cdms=%-7llu links=%-6zu converged=%s\n", name,
      static_cast<unsigned long long>(steps),
      static_cast<unsigned long long>(cluster.network().total_sent("CDM") -
                                      cdm_before),
      mesh.total_links, converged ? "yes" : "NO");
  if (drain.quiescent) {
    std::printf("%-9s quiescence: drained (+%llu steps)\n", name,
                static_cast<unsigned long long>(drain.steps));
  } else {
    std::printf("%-9s quiescence: TIMED OUT with %zu messages in flight\n",
                name, drain.in_flight);
  }
  const obs::HealthReport& health = cluster.audit();
  std::printf("%-9s health: %s (%zu errors, %zu warnings, %llu audits)\n",
              name, obs::to_string(health.worst()), health.errors(),
              health.warnings(),
              static_cast<unsigned long long>(health.audit_runs));
  for (const obs::Finding& f : health.findings) {
    if (f.severity == obs::Severity::kError) {
      std::printf("          %s\n", f.to_string().c_str());
    }
  }
  if (opt.report) std::cout << core::make_report(cluster);

  int rc = 0;
  if (!opt.report_json.empty()) {
    const core::ClusterReport report = core::make_report(cluster);
    if (!write_file(opt.report_json,
                    [&](std::ostream& os) { report.write_json(os); },
                    "report JSON")) {
      rc = 1;
    }
  }
  if (!opt.prom_out.empty() &&
      !write_file(opt.prom_out,
                  [&](std::ostream& os) { obs::write_prometheus(cluster, os); },
                  "Prometheus metrics")) {
    rc = 1;
  }
  if (opt.explain_cycle || !opt.ledger_jsonl.empty()) {
    obs::Ledger* ledger = cluster.ledger();
    if (ledger == nullptr) {
      std::fprintf(stderr, "ledger disabled (ledger_capacity 0)\n");
      rc = 1;
    } else {
      if (ledger->completed() == 0) {
        // A detection-only run proves cycles but never sweeps them; one
        // collection round reclaims the cut garbage so the ledger has
        // completed entries to explain/export.
        cluster.collect_all();
        cluster.run_until_quiescent();
        cluster.collect_all();
      }
      if (opt.explain_cycle) {
        std::fputs(ledger->explain(opt.explain_cycle_id).c_str(), stdout);
      }
      if (!opt.ledger_jsonl.empty() &&
          !write_file(opt.ledger_jsonl,
                      [&](std::ostream& os) { ledger->write_jsonl(os); },
                      "ledger JSONL")) {
        rc = 1;
      }
    }
  }
  if (!opt.trace_out.empty() || !opt.trace_jsonl.empty()) {
    // The same decode path a post-mortem .rgcrec takes (--record-capacity 0
    // leaves no recorder and an empty timeline).
    obs::RecordedRun run;
    if (const obs::FlightRecorder* rec = cluster.recorder()) {
      run = obs::FlightRecorder::decode(rec->encode(cluster.recorder_stamp()))
                .value();
    }
    if (!opt.trace_out.empty() &&
        !write_file(
            opt.trace_out,
            [&](std::ostream& os) { obs::write_timeline_chrome(run, os); },
            "Chrome trace")) {
      rc = 1;
    }
    if (!opt.trace_jsonl.empty() &&
        !write_file(
            opt.trace_jsonl,
            [&](std::ostream& os) { obs::write_timeline_jsonl(run, os); },
            "JSONL trace")) {
      rc = 1;
    }
  }
  return rc;
}

/// Live dashboard: steps the cluster through a detection + periodic
/// collections, rendering one frame every watch_every steps.  On a TTY the
/// screen is cleared between frames; otherwise frames are separated by a
/// rule so the output stays scriptable.
int run_watch(const Options& opt) {
  core::ClusterConfig cfg;
  cfg.net.seed = opt.seed;
  apply_net_flags(opt, cfg.net);
  cfg.audit_interval = opt.audit_interval;
  core::Cluster cluster{cfg};
  const workload::Mesh mesh = workload::build_mesh(
      cluster, {opt.processes, opt.deps, opt.extra_replicas});
  cluster.snapshot_all();
  cluster.detect(mesh.head_process, mesh.head);

  obs::DashboardState state;
  const bool tty = isatty(fileno(stdout)) != 0;
  for (std::uint64_t s = 1; s <= opt.watch_steps; ++s) {
    cluster.step();
    // Keep the collectors active so frames show live GC state, not a
    // drained network.
    if (s % 64 == 0) cluster.collect_all();
    if (s % opt.watch_every == 0 || s == opt.watch_steps) {
      if (tty) std::fputs("\x1b[2J\x1b[H", stdout);
      std::fputs(obs::render_dashboard(cluster, state).c_str(), stdout);
      if (!tty) std::fputs("----\n", stdout);
      std::fflush(stdout);
      if (opt.watch_delay_ms != 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opt.watch_delay_ms));
      }
    }
  }

  const obs::HealthReport& health = cluster.audit();
  std::printf("final %s\n", health.to_string().c_str());
  if (!opt.prom_out.empty() &&
      !write_file(opt.prom_out,
                  [&](std::ostream& os) { obs::write_prometheus(cluster, os); },
                  "Prometheus metrics")) {
    return 1;
  }
  return health.errors() == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }
  if (!opt.record_out.empty()) return run_record(opt);
  if (!opt.replay_in.empty()) return run_replay(opt);
  if (!opt.bisect_files.empty()) return run_bisect(opt);
  if (opt.watch) return run_watch(opt);

  std::printf("mesh: %zu processes, %zu dependencies, %zu extra replicas\n",
              opt.processes, opt.deps, opt.extra_replicas);
  int rc = 0;
  if (opt.mode == "ours" || opt.mode == "both") {
    rc |= run_one(opt, core::DetectorMode::kReplicationAware, "ours");
  }
  if (opt.mode == "baseline" || opt.mode == "both") {
    rc |= run_one(opt, core::DetectorMode::kBaseline, "baseline");
  }
  return rc;
}
