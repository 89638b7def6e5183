#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/cluster.h"
#include "core/oracle.h"
#include "graphdb/graphdb.h"
#include "util/trace.h"
#include "workload/mesh.h"
#include "workload/trees.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rgc::ObjectId;
using rgc::ProcessId;
using rgc::core::Cluster;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Seeded input generation ------------------------------------------------

/// SplitMix64: tiny, and its output depends on nothing but the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Registered, non-ring vertices the script may name, with O(1) removal.
class Pool {
 public:
  void add(std::uint32_t v) {
    pos_[v] = items_.size();
    items_.push_back(v);
  }
  void remove(std::uint32_t v) {
    const std::size_t at = pos_.at(v);
    items_[at] = items_.back();
    pos_[items_[at]] = at;
    items_.pop_back();
    pos_.erase(v);
  }
  std::uint32_t pick(Rng& rng) const { return items_[rng.below(items_.size())]; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  std::vector<std::uint32_t> items_;
  std::map<std::uint32_t, std::size_t> pos_;
};

constexpr std::size_t kRingSize = 4;
constexpr std::size_t kMinPool = 200;

}  // namespace

WorkloadSpec spec_for(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "spanning_cycles") {
    s.bulk = WorkloadSpec::Bulk::kMeshes;
    s.meshes = 8;
    s.ballast_per_process = 4096;
  } else if (name == "big_heap") {
    s.bulk = WorkloadSpec::Bulk::kTrees;
    s.heap_processes = 16;
    s.trees = 8;
    s.ballast_per_process = 65536;
  } else if (name != "graph_store") {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

OpClass op_class(OpKind kind) {
  switch (kind) {
    case OpKind::kRead:
      return OpClass::kRead;
    case OpKind::kTick:
      return OpClass::kTick;
    default:
      return OpClass::kWrite;
  }
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  Rng rng(seed * 0x2545f4914f6cdd1dull + 0x1234567ull);
  const std::size_t shards = spec.shards;
  // Vertex i lives on shard i % shards (GraphStore assigns homes
  // round-robin in creation order).
  std::uint32_t next_vertex = 0;
  Pool pool;
  for (std::size_t i = 0; i < spec.vertices; ++i) pool.add(next_vertex++);

  // Mostly cross-shard targets, so edges replicate their target.
  const auto pick_target = [&](std::uint32_t from) {
    std::uint32_t to = pool.pick(rng);
    for (int tries = 0; tries < 8 && rng.below(10) < 8 &&
                        to % shards == from % shards;
         ++tries) {
      to = pool.pick(rng);
    }
    return to;
  };
  for (std::size_t e = 0; e < spec.edges; ++e) {
    const std::uint32_t a = pool.pick(rng);
    in.setup_edges.emplace_back(a, pick_target(a));
  }

  // Client script.  Draw weights out of 95: 40 read, 15 add_vertex,
  // 25 add_edge, 10 remove, 5 tick.  (With ticks at 10 of 100 about
  // half the ticks found GC work due, so the median tick flipped between a
  // microsecond no-op and a collection from seed to seed.)  One add_vertex
  // draw in 15 builds a whole cross-shard ring instead (4 vertices + 4
  // edges), and one remove draw in 10 deletes the oldest ring whole.
  //
  // A plain remove drops the vertex's out-edges first; only ring members
  // are unlinked with their edges in place.  Removed vertices that keep
  // their edges pile up into a region of remotely-held, locally
  // unreachable objects, and once that region is dense enough each
  // detection forks a CDM per path through it: on rare input sets the
  // final full GC then ran out of memory.
  std::vector<std::array<std::uint32_t, kRingSize>> rings;
  std::size_t oldest_ring = 0;
  auto& ops = in.ops;
  while (ops.size() < spec.client_ops) {
    const std::size_t r = rng.below(95);
    if (r < 40) {
      ops.push_back({OpKind::kRead, pool.pick(rng)});
    } else if (r < 55) {
      if (rng.below(15) == 0) {
        std::array<std::uint32_t, kRingSize> ring{};
        for (auto& v : ring) {
          v = next_vertex++;
          ops.push_back({OpKind::kAddVertex, v});
        }
        for (std::size_t k = 0; k < kRingSize; ++k) {
          ops.push_back({OpKind::kAddEdge, ring[k], ring[(k + 1) % kRingSize]});
        }
        rings.push_back(ring);
      } else {
        ops.push_back({OpKind::kAddVertex, next_vertex});
        pool.add(next_vertex++);
      }
    } else if (r < 80) {
      const std::uint32_t a = pool.pick(rng);
      ops.push_back({OpKind::kAddEdge, a, pick_target(a)});
    } else if (r < 90) {
      if (oldest_ring < rings.size() && rng.below(10) == 0) {
        for (std::uint32_t v : rings[oldest_ring]) {
          ops.push_back({OpKind::kUnlinkVertex, v});
        }
        ++oldest_ring;
        ++in.rings_deleted;
      } else if (pool.size() > kMinPool) {
        const std::uint32_t v = pool.pick(rng);
        pool.remove(v);
        ops.push_back({OpKind::kRemoveVertex, v});
      }
    } else {
      ops.push_back({OpKind::kTick});
    }
  }
  return in;
}

// ---- Reading the public registries -----------------------------------------

namespace {

/// Message kinds the collectors send (gc_weight_per_reclaimed's numerator).
const std::array<const char*, 6> kGcKinds = {
    "CDM", "Cut", "PropCut", "NewSetStubs", "Unreachable", "Reclaim"};
const std::array<const char*, 3> kAdgcKinds = {"NewSetStubs", "Unreachable",
                                               "Reclaim"};
const std::array<const char*, 5> kCoherenceKinds = {
    "Propagate", "PropSync", "Rebind", "RebindNack", "Recover"};
const std::array<const char*, 7> kProfileTimers = {
    "lgc.mark_us",    "lgc.apply_us",       "lgc.summarize_us", "adgc.digest_us",
    "cycle.detect_us", "cycle.summarize_us", "cycle.install_us"};
const std::array<const char*, 4> kProcessCounters = {
    "lgc.reclaimed", "lgc.collections", "cycle.summarize_reused",
    "adgc.scions_deleted"};

using Buckets = std::array<std::uint64_t, rgc::util::Histogram::kBuckets>;

/// Everything the per-layer and deterministic metrics are deltas of.
struct Sample {
  /// Network registry counters: net.*, daemon.*, cycle.* and so on.
  std::map<std::string, std::uint64_t> net;
  std::map<std::string, std::uint64_t> process_totals;
  std::map<std::string, std::uint64_t> profile_us;
  std::uint64_t traced{0};
  std::uint64_t now{0};
  std::uint64_t verdicts{0};
  std::uint64_t audits{0};
  std::uint64_t recorder_events{0};
  Buckets latency_buckets{};
  std::uint64_t latency_min{0};
  std::uint64_t latency_max{0};
};

Sample take_sample(Cluster& cluster) {
  Sample s;
  for (const auto& [name, value] : cluster.network().metrics().snapshot()) {
    s.net[name] = value;
  }
  for (const char* name : kProcessCounters) {
    s.process_totals[name] = cluster.metric_total(name);
  }
  for (const char* name : kProfileTimers) {
    const rgc::util::Histogram* h = cluster.profile().find_histogram(name);
    s.profile_us[name] = h == nullptr ? 0 : h->sum();
  }
  rgc::util::Histogram latency;
  for (ProcessId pid : cluster.process_ids()) {
    const rgc::util::Metrics& m = cluster.process(pid).metrics();
    if (const auto* h = m.find_histogram("lgc.traced_per_collection")) {
      s.traced += h->sum();
    }
    if (const auto* h = m.find_histogram("gc.reclaim_latency_steps")) {
      latency.merge(*h);
    }
  }
  s.latency_buckets = latency.buckets();
  s.latency_min = latency.min();
  s.latency_max = latency.max();
  s.now = cluster.now();
  s.verdicts = cluster.cycles_found().size();
  const rgc::util::Metrics& audit = cluster.auditor().metrics();
  s.audits = audit.get("audit.runs") + audit.get("audit.deep_runs");
  if (const auto* rec = cluster.recorder()) s.recorder_events = rec->appended();
  return s;
}

/// Delta view of two samples.
struct Delta {
  const Sample& a;
  const Sample& b;
  std::uint64_t net(const std::string& name) const {
    const auto get = [&](const Sample& s) {
      auto it = s.net.find(name);
      return it == s.net.end() ? 0 : it->second;
    };
    return get(b) - get(a);
  }
  template <std::size_t N>
  std::uint64_t net_sum(const std::string& prefix,
                        const std::array<const char*, N>& kinds) const {
    std::uint64_t out = 0;
    for (const char* k : kinds) out += net(prefix + k);
    return out;
  }
  std::uint64_t process(const std::string& name) const {
    return b.process_totals.at(name) - a.process_totals.at(name);
  }
  double profile_s(const std::string& name) const {
    return static_cast<double>(b.profile_us.at(name) - a.profile_us.at(name)) /
           1e6;
  }
};

/// Where one phase of a repetition spent its time and what it did.
std::map<std::string, double> phase_summary(const Sample& a, const Sample& b,
                                            double wall_s) {
  const Delta d{a, b};
  return {{"wall_s", wall_s},
          {"lgc.mark_s", d.profile_s("lgc.mark_us")},
          {"lgc.apply_s", d.profile_s("lgc.apply_us")},
          {"summary.summarize_s",
           d.profile_s("lgc.summarize_us") + d.profile_s("cycle.summarize_us")},
          {"adgc.digest_s", d.profile_s("adgc.digest_us")},
          {"cycle.detect_s", d.profile_s("cycle.detect_us")},
          {"cycle.install_s", d.profile_s("cycle.install_us")},
          {"cycle.cdm_msgs", static_cast<double>(d.net("net.sent.CDM"))},
          {"cycle.verdicts", static_cast<double>(b.verdicts - a.verdicts)},
          {"lgc.reclaimed", static_cast<double>(d.process("lgc.reclaimed"))}};
}

// ---- The full-GC driver, through public calls -------------------------------

/// Σ of what run_full_gc counts as "state-unlocking" progress.
std::uint64_t unlock_signal(Cluster& cluster) {
  const rgc::util::Metrics& m = cluster.network().metrics();
  return m.get("net.delivered.Unreachable") + m.get("net.delivered.Reclaim") +
         m.get("net.delivered.Cut") + m.get("net.delivered.PropCut") +
         cluster.metric_total("adgc.scions_deleted") +
         cluster.metric_total("gc.lease_expirations");
}

/// What the traced driver counts beyond FullGcStats.
struct DriverStats {
  std::uint64_t collect_rounds{0};
  std::uint64_t traced_in_rounds{0};
  std::vector<std::uint64_t> dirty_pct;
};

std::uint64_t traced_total(Cluster& cluster) {
  std::uint64_t out = 0;
  for (ProcessId pid : cluster.process_ids()) {
    if (const auto* h = cluster.process(pid).metrics().find_histogram(
            "lgc.traced_per_collection")) {
      out += h->sum();
    }
  }
  return out;
}

/// Cluster::run_full_gc() (exhaustive candidates, default round cap)
/// re-driven phase by phase through the public API so that every phase
/// gets its own span.  Same calls in the same order, so every counter and
/// verdict matches run_full_gc exactly; the replay cross-check enforces it.
Cluster::FullGcStats traced_full_gc(Cluster& cluster, Tracer& tr,
                                    DriverStats& ds) {
  constexpr std::size_t kMaxRounds = 32;
  Cluster::FullGcStats stats;
  Tracer::Span whole(&tr, "cluster.full_gc");
  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    ++stats.rounds;
    const std::uint64_t cycles_before = cluster.cycles_found().size();
    std::uint64_t reclaimed_this_round = 0;
    const std::size_t inner_cap = 4 * cluster.process_count() + 8;
    for (std::size_t inner = 0; inner < inner_cap; ++inner) {
      const std::uint64_t signal_before = unlock_signal(cluster);
      const std::uint64_t reclaimed_before = cluster.metric_total("lgc.reclaimed");
      const std::uint64_t traced_before = traced_total(cluster);
      {
        Tracer::Span s(&tr, "cluster.collect_all");
        cluster.collect_all();
      }
      ++ds.collect_rounds;
      ds.traced_in_rounds += traced_total(cluster) - traced_before;
      ds.dirty_pct.push_back(cluster.network().metrics().gauge_value(
          "cycle.summary_dirty_fraction"));
      const std::uint64_t reclaimed =
          cluster.metric_total("lgc.reclaimed") - reclaimed_before;
      {
        Tracer::Span s(&tr, "net.run_until_quiescent");
        cluster.run_until_quiescent();
      }
      reclaimed_this_round += reclaimed;
      if (reclaimed == 0 && unlock_signal(cluster) == signal_before) break;
    }
    stats.reclaimed_objects += reclaimed_this_round;

    {
      Tracer::Span s(&tr, "cluster.snapshot_all");
      cluster.snapshot_all();
    }
    ds.dirty_pct.push_back(cluster.network().metrics().gauge_value(
        "cycle.summary_dirty_fraction"));
    std::uint64_t started = 0;
    for (ProcessId pid : cluster.process_ids()) {
      rgc::util::ScopedProcess ctx{pid};
      std::set<ObjectId> suspects;
      {
        Tracer::Span s(&tr, "cycle.suspects");
        suspects = cluster.suspects(pid);
      }
      for (ObjectId suspect : suspects) {
        Tracer::Span s(&tr, "cycle.start_detection");
        if (cluster.detect(pid, suspect).has_value()) ++started;
      }
    }
    stats.detections_started += started;
    {
      Tracer::Span s(&tr, "net.run_until_quiescent");
      cluster.run_until_quiescent();
    }
    const std::uint64_t new_cycles = cluster.cycles_found().size() - cycles_before;
    stats.cycles_found += new_cycles;
    if (reclaimed_this_round == 0 && new_cycles == 0) break;
  }
  return stats;
}

// ---- One repetition -----------------------------------------------------------

/// Rooted chains of `chain` objects, `per_process` objects on each process.
void add_ballast(Cluster& cluster, std::size_t per_process, std::size_t chain) {
  for (ProcessId pid : cluster.process_ids()) {
    for (std::size_t done = 0; done < per_process;) {
      ObjectId prev = cluster.new_object(pid);
      cluster.add_root(pid, prev);
      ++done;
      for (std::size_t k = 1; k < chain && done < per_process; ++k, ++done) {
        const ObjectId next = cluster.new_object(pid);
        cluster.add_ref(pid, prev, next);
        prev = next;
      }
    }
  }
}

struct OracleCounts {
  std::uint64_t dead_replicas{0};
  std::uint64_t replicas{0};
  std::uint64_t objects{0};
  std::size_t violations{0};
  std::string first_violation;
  bool fully_collected{false};
};

OracleCounts run_oracle(const Cluster& cluster, bool completeness) {
  const rgc::core::OracleReport report = rgc::core::Oracle::analyze(cluster);
  OracleCounts c;
  for (const rgc::Replica& r : report.replicas) {
    if (!report.is_live(r.object)) ++c.dead_replicas;
  }
  c.replicas = report.replicas.size();
  c.objects = report.existing_objects.size();
  c.violations = report.violations.size();
  if (!report.violations.empty()) c.first_violation = report.violations.front();
  if (completeness) {
    c.fully_collected = rgc::core::Oracle::fully_collected(cluster, report);
  }
  return c;
}

/// Counts attempted operations and checks; keeps the first few failures.
class Failures {
 public:
  explicit Failures(RepResult& r) : r_(r) {}
  void pass() { ++r_.attempted; }
  void fail(const std::string& what) {
    ++r_.attempted;
    ++r_.failed;
    if (r_.failures.size() < 8) r_.failures.push_back(what);
  }
  void check(bool ok, const std::string& what) { ok ? pass() : fail(what); }

 private:
  RepResult& r_;
};

/// One measured phase: registry samples at its start and end plus what
/// the benchmark counted itself.
struct Phase {
  Sample start;
  Sample end;
  DriverStats driver;
  std::vector<Cluster::FullGcStats> gcs;
  double gc_wall_s{0};
  double timed_s{0};
  std::uint64_t cycles_built{0};
  std::uint64_t cache_fills{0};
  std::uint64_t heap_slab_bytes{0};
  double replicas_per_vertex{0};
};

Cluster::FullGcStats full_gc(Cluster& cluster, Tracer* tracer, Phase& p) {
  p.gcs.push_back(tracer != nullptr ? traced_full_gc(cluster, *tracer, p.driver)
                                    : cluster.run_full_gc());
  return p.gcs.back();
}

std::uint64_t heap_slab_bytes(Cluster& cluster) {
  std::uint64_t out = 0;
  for (ProcessId pid : cluster.process_ids()) {
    out += cluster.process(pid).heap().slab_bytes();
  }
  return out;
}

/// The graph store and its client: setup, the client window, then a final
/// drain and full GC after which the Oracle must find no dead replica.
/// Fills the client-facing end-to-end figures of `r`.
Phase store_phase(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer,
                  RepResult& r, Failures& failures) {
  const auto setup_start = Clock::now();
  rgc::graphdb::GraphStoreConfig cfg;
  cfg.shards = spec.shards;
  cfg.cluster.threads = spec.threads;
  cfg.cluster.net.seed = in.seed;
  cfg.background_gc = true;
  rgc::graphdb::GraphStore store(cfg);
  Cluster& cluster = store.cluster();
  std::vector<rgc::graphdb::VertexId> vertex;
  vertex.reserve(spec.vertices + in.ops.size());
  for (std::size_t i = 0; i < spec.vertices; ++i) {
    vertex.push_back(store.add_vertex("v" + std::to_string(i)));
  }
  for (const auto& [a, b] : in.setup_edges) store.add_edge(vertex[a], vertex[b]);
  cluster.run_until_quiescent();
  r.setup_s += seconds_since(setup_start);

  Phase p;
  p.start = take_sample(cluster);
  p.cycles_built = in.rings_deleted;

  // ---- Client window: the seeded script, one closed-loop client.
  std::uint64_t dead_sum = 0;
  std::size_t samples = 0;
  OracleCounts oracle;
  const std::size_t sample_every =
      std::max<std::size_t>(1, in.ops.size() / spec.garbage_samples);
  double paused_s = 0;
  const auto client_start = Clock::now();
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const OpClass cls = op_class(op.kind);
    const char* span_name = cls == OpClass::kRead    ? "graphdb.read"
                            : cls == OpClass::kWrite ? "graphdb.write"
                                                     : "daemon.tick";
    const std::uint64_t propagate_before =
        tracer != nullptr && op.kind == OpKind::kAddEdge
            ? cluster.network().metrics().get("net.sent.Propagate")
            : 0;
    const auto t0 = Clock::now();
    try {
      Tracer::Span span(tracer, span_name);
      switch (op.kind) {
        case OpKind::kRead:
          (void)store.reachable_from(vertex.at(op.a), 2);
          break;
        case OpKind::kAddVertex:
          vertex.push_back(store.add_vertex("v" + std::to_string(op.a)));
          break;
        case OpKind::kAddEdge:
          store.add_edge(vertex.at(op.a), vertex.at(op.b));
          break;
        case OpKind::kRemoveVertex: {
          const rgc::graphdb::VertexId v = vertex.at(op.a);
          for (rgc::graphdb::VertexId t : store.out_neighbors(v)) store.remove_edge(v, t);
          store.remove_vertex(v);
          break;
        }
        case OpKind::kUnlinkVertex:
          store.remove_vertex(vertex.at(op.a));
          break;
        case OpKind::kTick:
          store.step();
          break;
      }
      failures.pass();
    } catch (const std::exception& e) {
      if (op.kind == OpKind::kAddVertex) vertex.push_back(rgc::kNoObject);
      failures.fail(std::string("client op threw: ") + e.what());
    }
    r.latency.record(
        cls, std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (tracer != nullptr && op.kind == OpKind::kAddEdge) {
      p.cache_fills +=
          cluster.network().metrics().get("net.sent.Propagate") - propagate_before;
    }
    if ((i + 1) % sample_every == 0 || i + 1 == in.ops.size()) {
      // Floating garbage, counted outside the timing.
      const auto pause = Clock::now();
      oracle = run_oracle(cluster, false);
      dead_sum += oracle.dead_replicas;
      ++samples;
      failures.check(oracle.violations == 0, "oracle after op " +
                                                 std::to_string(i + 1) + ": " +
                                                 oracle.first_violation);
      paused_s += seconds_since(pause);
    }
  }
  r.client_s = seconds_since(client_start) - paused_s;
  r.client_ops = in.ops.size();
  r.floating_garbage = static_cast<double>(dead_sum) / static_cast<double>(samples);
  p.replicas_per_vertex = oracle.objects == 0 ? 0
                                              : static_cast<double>(oracle.replicas) /
                                                    static_cast<double>(oracle.objects);
  const Sample after_client = take_sample(cluster);
  r.phases["client"] = phase_summary(p.start, after_client, r.client_s);

  // ---- Final collection: drain, one full GC, then nothing dead may remain.
  {
    Tracer::Span s(tracer, "net.run_until_quiescent");
    cluster.run_until_quiescent();
  }
  const auto gc0 = Clock::now();
  (void)full_gc(cluster, tracer, p);
  const double final_gc_s = seconds_since(gc0);
  // The store collects in the background, so its GC wall time is what the
  // client spent in step() (where the daemon runs) plus the final full GC.
  // The final GC alone is too short and too seed-dependent to compare.
  double tick_ms = 0;
  for (double ms : r.latency.samples(OpClass::kTick)) tick_ms += ms;
  p.gc_wall_s = tick_ms / 1000 + final_gc_s;
  p.timed_s = r.client_s + final_gc_s;
  const OracleCounts final_oracle = run_oracle(cluster, true);
  failures.check(final_oracle.violations == 0,
                 "safety after final GC: " + final_oracle.first_violation);
  failures.check(final_oracle.fully_collected,
                 "completeness: " + std::to_string(final_oracle.dead_replicas) +
                     " dead replicas survive the final drain and full GC");
  r.fingerprint["store.floating_garbage_sum"] = dead_sum;
  r.fingerprint["store.final_replicas"] = final_oracle.replicas;
  p.heap_slab_bytes = heap_slab_bytes(cluster);
  p.end = take_sample(cluster);
  r.phases["store_gc"] = phase_summary(after_client, p.end, final_gc_s);
  return p;
}

/// spanning_cycles / big_heap: a cluster holding replicated garbage beside
/// rooted ballast, collected by one timed full GC whose counts must match
/// what was built.
Phase bulk_phase(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer,
                 RepResult& r, Failures& failures) {
  const auto setup_start = Clock::now();
  rgc::core::ClusterConfig cfg;
  cfg.threads = spec.threads;
  cfg.net.seed = in.seed;
  Cluster cluster(cfg);
  Phase p;
  std::uint64_t garbage_built = 0;
  std::vector<ObjectId> garbage;
  if (spec.bulk == WorkloadSpec::Bulk::kMeshes) {
    for (std::size_t m = 0; m < spec.meshes; ++m) {
      const std::uint64_t before = cluster.total_objects();
      const rgc::workload::Mesh mesh = rgc::workload::build_mesh(
          cluster, {.processes = spec.mesh_processes,
                    .dependencies = spec.mesh_dependencies,
                    .extra_replicas = spec.mesh_extra_replicas});
      garbage_built += cluster.total_objects() - before;
      garbage.insert(garbage.end(), mesh.strand.begin(), mesh.strand.end());
      ++p.cycles_built;
    }
  } else {
    while (cluster.process_count() < spec.heap_processes) cluster.add_process();
    // Every tree is built before any root is dropped: build_tree's own
    // settling collections would otherwise reclaim earlier trees early.
    std::vector<rgc::workload::Tree> trees;
    for (std::size_t t = 0; t < spec.trees; ++t) {
      trees.push_back(rgc::workload::build_tree(
          cluster, {.fanout = spec.tree_fanout,
                    .depth = spec.tree_depth,
                    .processes = spec.heap_processes}));
    }
    garbage_built = cluster.total_objects();
    for (const auto& tree : trees) {
      cluster.remove_root(tree.root_process, tree.root);
      garbage.insert(garbage.end(), tree.nodes.begin(), tree.nodes.end());
    }
  }
  add_ballast(cluster, spec.ballast_per_process, spec.ballast_chain);
  cluster.run_until_quiescent();
  r.setup_s += seconds_since(setup_start);

  // Start every garbage replica's reclaim-latency clock now, as the
  // auditor's oracle assist does: the mesh and tree builders unlink their
  // garbage where no mutator hook stamps it, and unstamped garbage would
  // enter gc.reclaim_latency_steps as reclaimed after 0 steps.
  for (ProcessId pid : cluster.process_ids()) {
    for (ObjectId id : garbage) {
      if (rgc::rm::Object* obj = cluster.process(pid).heap().find(id)) {
        if (obj->unlinked_at == 0) obj->unlinked_at = cluster.now();
      }
    }
  }

  p.start = take_sample(cluster);
  const std::uint64_t live = cluster.total_objects() - garbage_built;
  const auto t0 = Clock::now();
  const Cluster::FullGcStats g = full_gc(cluster, tracer, p);
  p.gc_wall_s = seconds_since(t0);
  p.timed_s = p.gc_wall_s;
  failures.check(g.reclaimed_objects == garbage_built &&
                     cluster.total_objects() == live,
                 "bulk GC reclaimed " + std::to_string(g.reclaimed_objects) +
                     " of " + std::to_string(garbage_built) +
                     " garbage replicas; " +
                     std::to_string(cluster.total_objects()) +
                     " replicas left, " + std::to_string(live) + " live");
  r.fingerprint["bulk.garbage_built"] = garbage_built;
  p.heap_slab_bytes = heap_slab_bytes(cluster);
  p.end = take_sample(cluster);
  r.phases["bulk_gc"] = phase_summary(p.start, p.end, p.gc_wall_s);
  return p;
}

/// Deterministic counters of one phase, keyed under `prefix`.
void add_fingerprint(const Phase& p, const std::string& prefix,
                     std::map<std::string, std::uint64_t>& fp) {
  const Delta d{p.start, p.end};
  for (const auto& [name, value] : p.end.net) {
    if (name.starts_with("net.sent.") || name.starts_with("net.weight.") ||
        name.starts_with("net.delivered.") || name.starts_with("daemon.")) {
      fp[prefix + name] = d.net(name);
    }
  }
  for (const char* name : kProcessCounters) fp[prefix + name] = d.process(name);
  fp[prefix + "lgc.traced"] = p.end.traced - p.start.traced;
  fp[prefix + "virtual_steps"] = p.end.now - p.start.now;
  fp[prefix + "verdicts"] = p.end.verdicts - p.start.verdicts;
  fp[prefix + "audits"] = p.end.audits - p.start.audits;
  fp[prefix + "recorder_events"] = p.end.recorder_events - p.start.recorder_events;
  for (std::size_t i = 0; i < p.gcs.size(); ++i) {
    const std::string k = prefix + "full_gc" + std::to_string(i) + ".";
    fp[k + "rounds"] = p.gcs[i].rounds;
    fp[k + "reclaimed"] = p.gcs[i].reclaimed_objects;
    fp[k + "cycles_found"] = p.gcs[i].cycles_found;
    fp[k + "detections_started"] = p.gcs[i].detections_started;
  }
}

/// Per-layer metrics of a repetition's phases, read from outside the
/// layers.  Counts and times add up over the phases; ratios are taken of
/// the sums.
std::map<std::string, double> layer_metrics(const std::vector<const Phase*>& phases,
                                            const Tracer& tr) {
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::map<std::string, double> L;
  double delivered = 0;
  double timed_s = 0;
  double traced_in_rounds = 0;
  double dirty_sum = 0;
  double dirty_n = 0;
  double detections = 0;
  double cycles_built = 0;
  for (const Phase* p : phases) {
    const Delta d{p->start, p->end};
    for (const auto& [name, value] : p->end.net) {
      if (name.starts_with("net.delivered.")) delivered += u(d.net(name));
    }
    timed_s += p->timed_s;
    L["net.virtual_steps"] += u(p->end.now - p->start.now);

    L["lgc.mark_s"] += d.profile_s("lgc.mark_us");
    L["lgc.apply_s"] += d.profile_s("lgc.apply_us");
    L["lgc.traced"] += u(p->end.traced - p->start.traced);
    traced_in_rounds += u(p->driver.traced_in_rounds);
    L["lgc.reclaimed"] += u(d.process("lgc.reclaimed"));
    L["lgc.collections"] += u(d.process("lgc.collections"));

    L["summary.summarize_s"] +=
        d.profile_s("lgc.summarize_us") + d.profile_s("cycle.summarize_us");
    L["summary.reused"] += u(d.process("cycle.summarize_reused"));
    for (std::uint64_t pct : p->driver.dirty_pct) {
      dirty_sum += u(pct);
      ++dirty_n;
    }

    L["adgc.digest_s"] += d.profile_s("adgc.digest_us");
    L["adgc.msgs"] += u(d.net_sum("net.sent.", kAdgcKinds));
    L["adgc.weight"] += u(d.net_sum("net.weight.", kAdgcKinds));

    detections += u(d.net("daemon.detections_started"));
    for (const auto& g : p->gcs) {
      detections += u(g.detections_started);
      L["cluster.full_gc_rounds"] += u(g.rounds);
    }
    cycles_built += u(p->cycles_built);
    L["cycle.detect_s"] += d.profile_s("cycle.detect_us");
    L["cycle.install_s"] += d.profile_s("cycle.install_us");
    L["cycle.verdicts"] += u(p->end.verdicts - p->start.verdicts);
    L["cycle.cdm_msgs"] += u(d.net("net.sent.CDM"));
    L["cycle.cdm_weight"] += u(d.net("net.weight.CDM"));
    L["cycle.cut_msgs"] += u(d.net("net.sent.Cut"));

    L["rm.coherence_msgs"] += u(d.net_sum("net.sent.", kCoherenceKinds));
    L["rm.replicas_per_vertex"] += p->replicas_per_vertex;
    L["rm.heap_slab_bytes"] += u(p->heap_slab_bytes);

    L["cluster.collect_rounds"] += u(p->driver.collect_rounds);
    for (const char* name :
         {"daemon.collections", "daemon.sweeps", "daemon.skipped_collections",
          "daemon.skipped_sweeps", "daemon.snapshot_bytes",
          "daemon.detections_started"}) {
      L[name] += u(d.net(name));
    }
    L["graphdb.cache_fills"] += u(p->cache_fills);
    L["obs.audits"] += u(p->end.audits - p->start.audits);
    L["obs.recorder_events"] += u(p->end.recorder_events - p->start.recorder_events);
  }
  L["net.quiesce_s"] = tr.total_s("net.run_until_quiescent");
  L["net.delivered"] = delivered;
  L["net.delivered_per_s"] = delivered / timed_s;
  L["lgc.traced_per_s"] = L["lgc.mark_s"] > 0 ? traced_in_rounds / L["lgc.mark_s"] : 0;
  L["summary.dirty_pct"] = dirty_n == 0 ? 0 : dirty_sum / dirty_n;
  L["cycle.snapshot_s"] = tr.total_s("cluster.snapshot_all");
  L["cycle.detections_started"] = detections;
  L["cycle.verdicts_per_cycle"] =
      cycles_built == 0 ? 0 : L["cycle.verdicts"] / cycles_built;
  L["cycle.cdm_weight_per_detection"] =
      detections == 0 ? 0 : L["cycle.cdm_weight"] / detections;
  L["cluster.collect_round_s"] = tr.total_s("cluster.collect_all");
  L["daemon.tick_s"] = tr.total_s("daemon.tick");
  L["graphdb.read_s"] = tr.total_s("graphdb.read");
  L["graphdb.write_s"] = tr.total_s("graphdb.write");
  return L;
}

}  // namespace

RepResult run_rep(const WorkloadSpec& spec, const Inputs& in, Tracer* tracer,
                  bool with_bulk) {
  RepResult r;
  Failures failures(r);
  // Every workload runs the store and its client.  On graph_store that is
  // the measured phase; the full-GC workloads measure their bulk phase and
  // take the client-facing figures from the store.
  const bool bulk = with_bulk && spec.bulk != WorkloadSpec::Bulk::kNone;
  r.bulk = bulk;
  const Phase store = store_phase(spec, in, tracer, r, failures);
  add_fingerprint(store, "store.", r.fingerprint);
  std::optional<Phase> bulk_gc;
  if (bulk) {
    bulk_gc = bulk_phase(spec, in, tracer, r, failures);
    add_fingerprint(*bulk_gc, "bulk.", r.fingerprint);
  }
  const Phase& measured = bulk ? *bulk_gc : store;

  r.gc_wall_s = measured.gc_wall_s;
  r.timed_s = measured.timed_s;
  const Delta d{measured.start, measured.end};
  const std::uint64_t reclaimed = d.process("lgc.reclaimed");
  const std::uint64_t gc_weight = d.net_sum("net.weight.", kGcKinds);
  r.gc_weight_per_reclaimed =
      reclaimed == 0 ? 0
                     : static_cast<double>(gc_weight) / static_cast<double>(reclaimed);
  for (std::size_t i = 0; i < measured.end.latency_buckets.size(); ++i) {
    r.reclaim_latency_buckets.push_back(measured.end.latency_buckets[i] -
                                        measured.start.latency_buckets[i]);
  }
  r.reclaim_latency_min = measured.end.latency_min;
  r.reclaim_latency_max = measured.end.latency_max;
  if (tracer != nullptr) {
    std::vector<const Phase*> phases{&store};
    if (bulk) phases.push_back(&*bulk_gc);
    r.layers = layer_metrics(phases, *tracer);
  }
  return r;
}

}  // namespace perfbench
