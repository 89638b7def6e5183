// Cluster — the library's public facade.
//
// A Cluster owns the simulated network, the participating processes, and a
// cycle-detector instance per process (its traversal set by
// ClusterConfig::mode), and wires message dispatch between them.
// Applications build and mutate the distributed replicated graph through it,
// advance virtual time with step(), and run the collectors:
//
//   rgc::core::Cluster cluster;
//   auto p1 = cluster.add_process();
//   auto p2 = cluster.add_process();
//   auto x = cluster.new_object(p1);
//   cluster.add_root(p1, x);
//   cluster.propagate(x, p1, p2);          // replicate x onto p2
//   cluster.run_until_quiescent();
//   cluster.remove_root(p1, x);            // x becomes garbage everywhere
//   cluster.run_full_gc();                 // ... and is reclaimed
//
// Everything is deterministic under a fixed ClusterConfig::net.seed.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gc/adgc/adgc.h"
#include "gc/cycle/detector.h"
#include "gc/cycle/heuristics.h"
#include "gc/lgc/lgc.h"
#include "net/network.h"
#include "obs/audit.h"
#include "obs/health.h"
#include "obs/ledger.h"
#include "obs/recorder.h"
#include "rm/process.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace rgc::core {

/// Which traversal every process's cycle detector runs (gc::Traversal).
enum class DetectorMode {
  kReplicationAware,  // the paper's contribution (§3)
  kBaseline,          // modified [23]: props flattened to reference pairs
};

struct ClusterConfig {
  net::NetworkConfig net{};
  DetectorMode mode{DetectorMode::kReplicationAware};
  gc::DetectorConfig detector{};
  /// Apply the cut automatically when a detection proves a cycle.
  bool auto_cut{true};
  /// Finalization strategy used by collect()/collect_all() (Figure 6/7).
  gc::FinalizeStrategy finalize{gc::FinalizeStrategy::kNone};
  /// Worker threads for the read-only GC phases (LGC marking and heap
  /// scan, snapshot summarization) in collect_all/snapshot_all/
  /// run_full_gc.  Results are bit-for-bit identical for any value: the
  /// mutating phases stay serial in pid order, so network traffic,
  /// metrics, and traces don't change.
  /// 1 (default) keeps everything on the calling thread.
  std::size_t threads{1};
  /// Scheduled cadence of the online health auditor (obs/audit.h) in
  /// simulation steps: every audit_interval-th step() runs the shallow
  /// invariant checks.  0 disables scheduled audits; audit() still works
  /// on demand.
  std::uint64_t audit_interval{64};
  /// Every Nth scheduled audit also runs the deep (mark-based) checks.
  std::uint64_t audit_deep_every{8};
  /// Lease/timeout reclamation (docs/FAULTS.md): a peer whose lease has
  /// not been renewed for this many steps is considered failed, and the
  /// scions/props it holds here are retired through the ADGC path
  /// (gc::Adgc::expire_leases).  0 (default) disables leases entirely —
  /// dead processes then pin their remote state until they restart.
  std::uint64_t lease_timeout{0};
  /// Cadence of the out-of-band keepalive floor between mutually reachable
  /// live processes (renewals also piggyback on every delivered message).
  /// 0 derives max(1, lease_timeout / 4).  Ignored while leases are off.
  std::uint64_t heartbeat_interval{0};
  /// Flight-recorder ring capacity per process (obs/recorder.h): every
  /// transport event, GC phase, sweep, reclaim decision, lease expiry and
  /// fault is retained in a fixed ring for post-mortem replay.  Always on
  /// by default, like the auditor — appends are O(1), allocation-free in
  /// steady state, and touch no deterministic metric.  0 disables.
  std::size_t record_capacity{4096};
  /// When set, the first audit ERROR dumps the recording here as a
  /// versioned `.rgcrec` file (sim_cli --record wires this up; SIGABRT
  /// dumps are armed separately via obs::arm_abort_dump).
  std::string record_dump_path{};
  /// Per-cycle cost ledger (obs/ledger.h): completed-entry ring capacity.
  /// Always on by default — the ledger is deterministic and its entries
  /// feed the report's slowest-cycles table and `--explain-cycle`.  0
  /// disables it.
  std::size_t ledger_capacity{256};
};

/// Outcome of run_until_quiescent: how many steps ran and whether the
/// network actually drained.
struct QuiescenceStatus {
  std::uint64_t steps{0};
  bool quiescent{true};
  /// Messages still in flight when we gave up (0 when quiescent).
  std::size_t in_flight{0};
  /// Crashed processes at the time of the call.  They are NOT pending work:
  /// kill() purges their in-flight traffic, so a cluster with dead members
  /// still quiesces (the fix for the old "crashed process counts as
  /// pending forever" hang).
  std::size_t dead{0};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- Topology ---------------------------------------------------------
  ProcessId add_process();
  /// Number of live (non-crashed) processes.
  [[nodiscard]] std::size_t process_count() const noexcept;
  /// Live process ids only; crashed ones reappear after restart().
  [[nodiscard]] std::vector<ProcessId> process_ids() const;
  [[nodiscard]] rm::Process& process(ProcessId id);
  [[nodiscard]] const rm::Process& process(ProcessId id) const;
  [[nodiscard]] gc::CycleDetector& detector(ProcessId id);
  [[nodiscard]] gc::SuspicionAgeTracker& suspicion_tracker(ProcessId id);
  [[nodiscard]] net::Network& network() noexcept { return net_; }
  [[nodiscard]] const net::Network& network() const noexcept { return net_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }

  // ---- Faults: crash, restart, partition (docs/FAULTS.md) ----------------

  /// Crashes `pid`: its in-memory state (process, detector, heuristics) is
  /// destroyed, its in-flight messages are purged, and future sends to it
  /// are dropped at the source.  The pid stays known — restart() brings it back.
  /// Engages fault-tolerant mode on every process (see
  /// rm::Process::set_fault_tolerant).  Throws if already down or unknown.
  void kill(ProcessId pid);

  /// Captures `pid`'s full state into its persisted image slot (the
  /// "snapshot periodically stored on disk" of §3.5.1, extended to the
  /// restartable rm/image.h format).  Deliberately free of metrics and
  /// mutation-epoch effects so periodic persistence never perturbs a
  /// deterministic run.  Throws for a dead pid.
  void persist(ProcessId pid);
  /// persist() on every live process, in pid order.
  void persist_all();

  /// Restarts a crashed `pid` from its last persisted image: validates the
  /// image (obs::check_image — a corrupt or stale one is rejected and the
  /// process restarts empty, counted as "cluster.restart_image_rejected"),
  /// re-registers leases in both directions, then drives the
  /// reconciliation protocol (RecoverMsg to every live peer + this side's
  /// rebinds/re-propagations).  Returns true when state was rehydrated
  /// from a valid image, false on an empty or rejected restart.  Throws if
  /// `pid` is alive or unknown.
  bool restart(ProcessId pid);

  /// True when `pid` exists and has not been killed (or was restarted).
  [[nodiscard]] bool is_alive(ProcessId pid) const;
  /// Currently crashed pids, ascending.
  [[nodiscard]] std::vector<ProcessId> dead_process_ids() const;

  /// Whether a persisted image exists for `pid` (any liveness).
  [[nodiscard]] bool has_image(ProcessId pid) const;
  /// Persisted image bytes ("" when none).  Test hooks: set_image replaces
  /// the stored bytes *without* touching the recorded persist epoch, so
  /// corruption and stale-snapshot scenarios are constructible.
  [[nodiscard]] const std::string& image(ProcessId pid) const;
  void set_image(ProcessId pid, std::string bytes);

  /// Installs a partition mask (see net::Network::set_partition): messages
  /// crossing group boundaries are lost, including those already in
  /// flight.  Engages fault-tolerant mode.
  void partition(const std::vector<std::vector<ProcessId>>& groups);
  /// Lifts the mask and runs the anti-entropy round: every live
  /// cross-group pair reconciles in both directions (rebinds,
  /// re-propagations, prop-sync), and leases across the former cut are
  /// renewed.  Nothing lost during the partition is re-delivered.
  void heal();
  [[nodiscard]] bool partitioned() const noexcept { return net_.partitioned(); }

  // ---- Graph building & mutation (delegates to the owning process) ------
  /// Creates a new object with a globally unique id on `owner`.
  ObjectId new_object(ProcessId owner, std::uint32_t payload_bytes = 16);
  void add_ref(ProcessId at, ObjectId from, ObjectId to);
  void remove_ref(ProcessId at, ObjectId from, ObjectId to);
  void add_root(ProcessId at, ObjectId target);
  void remove_root(ProcessId at, ObjectId target);
  void propagate(ObjectId object, ProcessId from, ProcessId to);
  void invoke(ProcessId caller, ObjectId target, std::uint32_t root_steps = 1);

  // ---- Virtual time ------------------------------------------------------
  /// One simulation step: deliver due messages, expire transient roots,
  /// and run the scheduled health audit when the cadence hits.
  void step();
  /// Advances virtual time by `steps` steps with discrete-event scheduling:
  /// quiescent stretches are jumped in one hop instead of executed step by
  /// step, clamped so every delivery, audit/heartbeat boundary, lease
  /// expiry and transient-root expiry still happens at exactly the virtual
  /// step it would under step()-stepping — the two schedules are
  /// observably identical (same events, same order, same virtual times).
  void advance(std::uint64_t steps);
  /// Drains the network with the same event-skipping scheduler, starting
  /// queued detection waves (detect()) as it goes; returns how many virtual
  /// steps elapsed and whether the cluster quiesced: the network drained
  /// and no queued start remains.  O(events), not O(virtual time), on
  /// idle-heavy workloads.
  QuiescenceStatus run_until_quiescent(std::uint64_t max_steps = 100000);
  [[nodiscard]] std::uint64_t now() const noexcept { return net_.now(); }

  // ---- Observability ------------------------------------------------------
  /// The always-on health auditor (scheduled by step(); see ClusterConfig).
  [[nodiscard]] obs::HealthAuditor& auditor() noexcept { return *auditor_; }
  [[nodiscard]] const obs::HealthAuditor& auditor() const noexcept {
    return *auditor_;
  }
  /// Runs a full (deep) audit now and returns its report: every invariant
  /// the auditor knows (obs/audit.h), including reference integrity over
  /// the whole heap.  This is the on-demand consistency check for tests
  /// and tools; run it at quiescence for a definitive verdict (in-flight
  /// traffic downgrades transient findings to WARN).
  const obs::HealthReport& audit() { return auditor_->run_deep(); }
  /// Latest health report (empty until the first scheduled or demanded
  /// audit).
  [[nodiscard]] const obs::HealthReport& health() const noexcept {
    return auditor_->report();
  }
  /// Wall-clock phase profiling registry (lgc.mark_us, lgc.apply_us,
  /// cycle.detect_us, ...).  Nondeterministic by nature — deliberately kept
  /// out of make_report()'s deterministic output.
  [[nodiscard]] const util::Metrics& profile() const noexcept { return profile_; }
  /// The always-on flight recorder (null when record_capacity is 0).
  [[nodiscard]] obs::FlightRecorder* recorder() noexcept {
    return recorder_.get();
  }
  [[nodiscard]] const obs::FlightRecorder* recorder() const noexcept {
    return recorder_.get();
  }
  /// Run identity for dumping this cluster's recording (rounds = 0: the
  /// cluster doesn't know the driving workload's round count).
  [[nodiscard]] obs::RecStamp recorder_stamp() const;
  /// The per-cycle cost ledger (null when ledger_capacity is 0).
  [[nodiscard]] obs::Ledger* ledger() noexcept { return ledger_.get(); }
  [[nodiscard]] const obs::Ledger* ledger() const noexcept {
    return ledger_.get();
  }

  // ---- Garbage collection -------------------------------------------------
  /// One local collection + acyclic-protocol round on one process: the
  /// phased collect over just `id`.  Returns the result `id`'s node keeps
  /// (no copy); it stays valid until `id` is collected again or killed.
  const gc::LgcResult& collect(ProcessId id);
  /// The phased collect over every live process, equivalent to collect()
  /// on each in id order.  With config.threads > 1 the trace phase runs
  /// concurrently across processes; sweeps and protocol messages are
  /// applied serially in pid order, so results are identical to threads=1.
  /// Returns the number of objects reclaimed.
  std::uint64_t collect_all();
  /// Snapshot + summarize one process (§3.5.1) through the dirty-epoch
  /// summary cache, installing it into the detector(s) the mode uses.
  void snapshot(ProcessId id);
  /// snapshot() on every live process (no coordination — each snapshot is
  /// independent; this bulk helper is a convenience, not a barrier).
  /// Summarization runs on the worker pool when config.threads > 1.
  void snapshot_all();
  /// Starts a detection with `candidate` (owned by `at`) as suspect.
  /// One verdict per cycle (DESIGN.md): returns nullopt without starting
  /// anything when `candidate` is covered — inside the closure of a verdict
  /// proven since `at`'s last snapshot (counted in cycle.starts_covered) —
  /// and when a detection has already started at `at` since that snapshot:
  /// `candidate` then waits in `at`'s queue (cycle.starts_queued), and
  /// every time the network goes idle each process starts its first
  /// uncovered queued suspect, one wave at a time.
  std::optional<std::uint64_t> detect(ProcessId at, ObjectId candidate);

  /// Detection candidates of `id`: every locally-unreachable scion anchor
  /// and replica in its snapshot (empty when no snapshot has been taken
  /// yet).  §3.1 leaves candidate selection out of scope.
  [[nodiscard]] std::set<ObjectId> suspects(ProcessId id);

  /// The one detection-start path: detect() on every suspect of `id`, or,
  /// with `budget != 0`, a start on each of the `budget` oldest by
  /// suspicion age (id order breaks ties) that skips covered suspects but
  /// never queues.  Returns how many detections started.
  std::uint64_t start_detections(ProcessId id, std::size_t budget = 0);

  /// Cycles proven so far (verdict CDMs, in discovery order).
  [[nodiscard]] const std::vector<gc::Cdm>& cycles_found() const noexcept {
    return cycles_found_;
  }

  /// Multi-round full collection: alternates acyclic rounds (LGC + ADGC +
  /// message quiescence) with detection sweeps over every suspect
  /// (start_detections with no budget, drained wave by wave) until a full
  /// iteration reclaims nothing and proves no new cycle.
  struct FullGcStats {
    std::uint64_t rounds{0};
    std::uint64_t reclaimed_objects{0};
    std::uint64_t cycles_found{0};
    std::uint64_t detections_started{0};
  };
  FullGcStats run_full_gc(std::size_t max_rounds = 32);

  // ---- Introspection ------------------------------------------------------
  /// Total replicas across all processes.
  [[nodiscard]] std::uint64_t total_objects() const;
  /// Sum of one per-process counter across every incarnation of every
  /// process: the live ones plus what killed incarnations counted.
  [[nodiscard]] std::uint64_t metric_total(const std::string& name) const;

 private:
  struct Node {
    std::unique_ptr<rm::Process> process;
    std::unique_ptr<gc::CycleDetector> detector;
    std::unique_ptr<gc::SuspicionAgeTracker> suspicion;
    /// Dirty-epoch snapshot reuse: the summary this process's last
    /// snapshot computed (its mutation_epoch field records the epoch it
    /// captured).  It serves snapshots only — a collection never
    /// summarizes.  summarize_all() keeps it verbatim — only the timestamp
    /// moves — while the live process's epoch still matches, so a
    /// quiescent process costs O(1) per snapshot round instead of a
    /// summarization.
    gc::ProcessSummary summary_cache;
    bool summary_cache_valid{false};
    /// Mark reuse: the last collection's result, and the mutation and root
    /// epochs it is valid for.  Each tag is its epoch right after that
    /// collection's apply, kept only when the protocol digest after it
    /// left the epoch there and no finalizer resurrected an object; kill()
    /// drops both.  A collection whose process is still at the mutation
    /// tag reuses the classes, unrooted list and stub set instead of
    /// tracing; one still at the root tag retraces only the remote
    /// closure (collect_nodes).
    gc::LgcResult last_collection;
    std::optional<std::uint64_t> last_collection_epoch;
    std::optional<std::uint64_t> last_root_epoch;
    /// Whether the most recent summarization of this node had to run fresh
    /// (true) or reused the cache (false).  Feeds the cluster-wide
    /// cycle.summary_dirty_fraction gauge.
    bool last_summary_fresh{true};
    /// False after kill(); the pointers above are null while down.
    bool alive{true};
    /// Last persisted image (gc::encode_image bytes; "" = never persisted)
    /// and the process mutation epoch recorded at persist time — restart
    /// rejects images older than this (stale-snapshot guard).
    std::string image;
    std::uint64_t image_epoch{0};
    /// Completed restarts (RecoverMsg::incarnation).
    std::uint64_t incarnations{0};
    /// One verdict per cycle, reset by every snapshot of this process:
    /// objects here inside a proven closure (detect() skips them), whether
    /// a detect() has started a detection here, and the suspects detect()
    /// queued behind it.
    std::set<ObjectId> covered;
    bool detecting{false};
    std::deque<ObjectId> queued;
  };

  /// The node of a live process; throws std::out_of_range for an unknown
  /// or crashed one.
  [[nodiscard]] Node& live_node(ProcessId id);
  /// Live nodes in pid order.
  [[nodiscard]] std::vector<Node*> live_nodes();

  /// The phased collect behind collect()/collect_all(): parallel mark and
  /// heap scan (skipped for a node whose kept mark still holds, confined
  /// to the remote closure for one whose root side is unchanged), serial
  /// apply of the garbage, serial protocol digest.  Each node's result
  /// lands in its last_collection; returns the objects reclaimed in total.
  std::uint64_t collect_nodes(const std::vector<Node*>& nodes);

  /// The snapshot behind snapshot()/snapshot_all(): parallel summarize
  /// (cached), serial install in pid order.
  void snapshot_nodes(const std::vector<Node*>& nodes);

  /// Refreshes every node's summary_cache (parallel when threads > 1),
  /// re-summarizing only nodes whose process's mutation epoch moved since
  /// the cached summary.  Serially records "cycle.summarize_reused" per
  /// reused node and the "cycle.summary_dirty_fraction" gauge (percent of
  /// nodes that needed a fresh summarization).
  void summarize_all(const std::vector<Node*>& nodes);

  /// Recomputes the cycle.summary_dirty_fraction gauge (percent of nodes
  /// whose latest summarization ran fresh) from the per-node freshness
  /// flags — over *all* nodes, so per-process and bulk rounds converge to
  /// the same value.
  void update_dirty_gauge();

  /// Worker pool for the read-only phases, created on first use.
  util::ThreadPool& pool();

  /// Routes a delivered message to its protocol handler; `msg` is
  /// env.msg, handed over mutable so the CDM handler can take its payload.
  void dispatch(ProcessId pid, const net::Envelope& env, net::Message& msg);
  /// Records the verdict, covers its closure, and sends its cuts.
  void handle_cycle_found(ProcessId at, const gc::Cdm& cdm);

  /// The start behind detect() (`paced`) and budgeted start_detections.
  std::optional<std::uint64_t> start_detection(Node& node, ObjectId candidate,
                                               bool paced);
  /// While the network is idle and starts are queued: one wave, each
  /// process starting its first uncovered queued suspect.
  void start_waves();
  [[nodiscard]] bool starts_queued() const;

  /// (Re)creates the live half of a Node for `pid` (process + detector +
  /// dispatch attachment) — shared by add_process and restart.
  void build_node(ProcessId pid, Node& node);

  /// Switches every live process into fault-tolerant mode; called the
  /// first time kill()/partition() runs or when leases are configured.
  void engage_fault_tolerance();

  /// One side of the reconciliation protocol: `from` re-binds its stubs
  /// toward `peer`, re-propagates its surviving links, prop-syncs, and
  /// refreshes the scion-retirement channel (docs/FAULTS.md).
  void send_reconciliation(rm::Process& from, ProcessId peer);

  /// Effective keepalive cadence (config.heartbeat_interval or derived).
  [[nodiscard]] std::uint64_t heartbeat_interval() const noexcept;

  /// One scheduler quantum: behaves exactly like `delta` consecutive
  /// step() calls under the precondition that steps (now, now + delta - 1]
  /// are silent — nothing due, no audit/heartbeat boundary, no lease or
  /// transient-root expiry strictly inside.  next_event_delta() computes
  /// the largest such delta.  step() is advance_clock(1).
  void advance_clock(std::uint64_t delta);

  /// Steps until the next scheduled event: the network's next due
  /// delivery, the next audit/heartbeat boundary, the earliest lease
  /// expiry, the earliest transient-root expiry, or the next wave of
  /// queued detection starts — whichever comes first.  Always >= 1;
  /// UINT64_MAX-ish when nothing is scheduled (the caller clamps to its own
  /// budget).
  [[nodiscard]] std::uint64_t next_event_delta() const;

  ClusterConfig config_;
  net::NetworkConfig net_config_;
  net::Network net_;
  std::map<ProcessId, Node> nodes_;
  std::uint64_t next_object_{0};
  std::uint32_t next_process_{0};
  /// True once any fault machinery (kill/partition/leases) is in play.
  bool faults_engaged_{false};
  std::vector<gc::Cdm> cycles_found_;
  gc::Finalizer finalizer_;
  std::unique_ptr<util::ThreadPool> pool_;
  /// Wall-clock phase timers; see profile().
  util::Metrics profile_;
  /// Declared after net_ so it is destroyed first (it is net_'s observer).
  std::unique_ptr<obs::HealthAuditor> auditor_;
  /// Also a net_ observer (add_observer) — same ordering rule.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  /// Per-cycle cost ledger; also a net_ observer (add_observer).
  std::unique_ptr<obs::Ledger> ledger_;
  /// Starts detect() skipped (covered) or queued.
  util::Counter starts_covered_;
  util::Counter starts_queued_;
  /// run_until_quiescent's registered counter and gauges.
  util::Counter quiescence_timeout_;
  util::Gauge quiescence_dead_pids_;
  util::Gauge quiescence_truncated_;
  /// Fault counters (docs/FAULTS.md).
  util::Counter crashes_;
  util::Counter recoveries_;
  util::Counter restart_image_rejected_;
  util::Counter partitions_;
  util::Counter heals_;
  /// Per-process counter totals of killed incarnations (metric_total).
  std::map<std::string, std::uint64_t> retired_counters_;
  /// Message kinds whose delivery can unlock sweeps the next collection
  /// performs: run_full_gc's acyclic-phase progress signal.
  static constexpr std::array<const char*, 4> kUnlockKinds{
      "Unreachable", "Reclaim", "Cut", "PropCut"};
  std::array<util::Counter, kUnlockKinds.size()> unlock_delivered_;
  /// Audit errors already recorded/dumped (the recorder notes each new
  /// ERROR once; the first one triggers the record_dump_path dump).
  std::uint64_t recorded_audit_errors_{0};
  bool audit_error_dumped_{false};
};

}  // namespace rgc::core
