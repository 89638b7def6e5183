// The benchmark's three workloads: what they build, the seeded inputs the
// program receives, and one repetition of a workload (setup, timed
// phases, checks).  See perfbench/README.md for why each exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// What sits beside the graph store in its cluster.
  enum class Bulk { kNone, kMeshes, kTrees } bulk{Bulk::kNone};
  // kMeshes: `meshes` garbage meshes (each adds mesh_processes processes).
  std::size_t meshes{0};
  std::size_t mesh_processes{8};
  std::size_t mesh_dependencies{8};
  std::size_t mesh_extra_replicas{1};
  // kTrees: heap_processes processes (store shards included), `trees`
  // garbage trees over all of them.
  std::size_t heap_processes{0};
  std::size_t trees{0};
  std::size_t tree_fanout{3};
  std::size_t tree_depth{5};
  /// Rooted live ballast per process (every process of the cluster), as
  /// chains of ballast_chain objects.
  std::size_t ballast_per_process{0};
  std::size_t ballast_chain{64};
  // The graph store and its client.
  std::size_t shards{8};
  std::size_t vertices{1000};
  std::size_t edges{2000};
  std::size_t client_ops{2000};
  /// Oracle samples of floating garbage taken during the client window.
  std::size_t garbage_samples{16};
  /// ClusterConfig::threads.
  std::size_t threads{4};
};

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec spec_for(const std::string& name);

enum class OpKind : std::uint8_t {
  kRead,          // reachable_from(v, 2)
  kAddVertex,     // add_vertex(label)
  kAddEdge,       // add_edge(a, b)
  kRemoveVertex,  // remove_edge(a, t) for each out-neighbour t, then remove_vertex(a)
  kUnlinkVertex,  // remove_vertex(a) alone: its edges stay (ring deletes)
  kTick,          // step()
};
/// One client operation; vertices are named by creation index.
struct Op {
  OpKind kind;
  std::uint32_t a{0};
  std::uint32_t b{0};
};
OpClass op_class(OpKind kind);

/// Everything the seed decides.  The program under test sees only these.
struct Inputs {
  std::uint64_t seed{0};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> setup_edges;
  std::vector<Op> ops;
  /// Cross-shard rings of vertices the script builds and later deletes
  /// whole: each is one garbage cycle.
  std::size_t rings_deleted{0};
};
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Outcome of one repetition.
struct RepResult {
  /// Whether the measured phase was the bulk GC (spanning_cycles,
  /// big_heap) rather than the store (graph_store, or a store-only
  /// repetition of a full-GC workload).
  bool bulk{false};
  double setup_s{0};
  double gc_wall_s{0};
  /// Client window wall time, Oracle pauses excluded.
  double client_s{0};
  /// Timed wall of the measured phase: the bulk GC, or on graph_store the
  /// client window plus the final full GC.
  double timed_s{0};
  std::size_t client_ops{0};
  LatencyLog latency;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;
  /// Deterministic counters; equal across repetitions and across traced
  /// and untraced runs of the same inputs.
  std::map<std::string, std::uint64_t> fingerprint;
  /// Deterministic end-to-end values.
  double gc_weight_per_reclaimed{0};
  /// gc.reclaim_latency_steps over the measured phase, merged over every
  /// process: log2 bucket counts and the observed extremes.  The run pools
  /// these over its input sets before taking the p99.
  std::vector<std::uint64_t> reclaim_latency_buckets;
  std::uint64_t reclaim_latency_min{0};
  std::uint64_t reclaim_latency_max{0};
  double floating_garbage{0};
  /// Peak resident set of the process that ran this repetition, MiB.
  double peak_rss_mb{0};
  /// Per-phase breakdown (client, store_gc, bulk_gc) for the record.
  std::map<std::string, std::map<std::string, double>> phases;
  /// Per-layer metrics (traced repetitions only).
  std::map<std::string, double> layers;
};

/// One repetition: the store and its client, then (with_bulk, on the
/// full-GC workloads) the bulk heap and its timed collection, with every
/// output check.  `tracer` non-null traces the measured phase.
RepResult run_rep(const WorkloadSpec& spec, const Inputs& inputs,
                  Tracer* tracer, bool with_bulk);

}  // namespace perfbench
