// One participating process of the RM system (§2.1): heap + mutator +
// coherence engine, plus the DGC bookkeeping tables the collectors read.
//
// The mutator API (create/add_ref/remove_ref/roots) is what an application
// sees; the coherence API (propagate/invoke) is what the store's engine
// drives.  Both enforce the paper's export/import rules:
//   - clean before send propagate  — scions are created at the sender for
//     every reference enclosed in the propagated object, before the message
//     leaves (so scions causally precede stubs);
//   - clean before deliver propagate — stubs are created at the receiver
//     for every imported reference that is not locally resolvable.
// Invocations and propagations bump the invocation/update counters used by
// the cycle detector's race barrier (§3.5).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "rm/heap.h"
#include "rm/messages.h"
#include "rm/tables.h"
#include "util/ids.h"
#include "util/metrics.h"

namespace rgc::obs {
class FlightRecorder;
class Ledger;
}  // namespace rgc::obs

namespace rgc::rm {

/// Pre-registered counter and histogram handles (see util/metrics.h):
/// resolved once at process construction, updated by pointer dereference.
/// Reports, prom export and perfbench read the same storage by name.
struct ProcessCounters {
  util::Counter objects_created;
  util::Counter ref_assignments;
  util::Counter ref_removals;
  util::Counter propagations;
  util::Counter propagations_delivered;
  util::Counter invocations;
  util::Counter invocations_delivered;
  util::Counter invocations_forwarded;
  util::Counter scions_created;
  util::Counter stubs_created;
  util::Counter inprops_created;
  util::Counter outprops_created;
  util::Counter lgc_collections;
  util::Counter lgc_reclaimed;
  util::Counter marks_reused;
  util::Counter scions_deleted;
  util::Counter lease_expirations;
  util::Counter summarize_reused;
  util::Counter newsetstubs_sent;
  util::Counter unreachable_sent;
  util::Counter reclaim_sent;
  util::Counter newsetstubs_stale;
  util::Counter unreachable_stale;
  util::Counter unreachable_received;
  util::Counter reclaim_forwarded;
  util::Counter reclaim_received;
  util::Counter lease_inprops_dropped;
  util::Counter lease_outprops_dropped;
  util::Counter lease_peers_expired;
  util::Counter marks_remote;
  // Fault-tolerance protocol (docs/FAULTS.md); cold, but counted through
  // handles like the rest.
  util::Counter invocations_orphaned;
  util::Counter rebind_nacks_sent;
  util::Counter scions_rebound;
  util::Counter inprops_synced_out;
  util::Counter stubs_severed;
  util::Counter refs_severed;
  util::Counter recover_sent;
  util::Counter recover_received;
  util::Counter rebinds_sent;
  util::Counter propsyncs_sent;
  util::Counter reconciliations;
  util::Histogram* reclaim_latency;
  util::Histogram* reclaimed_per_collection;
  util::Histogram* traced_per_collection;

  explicit ProcessCounters(util::Metrics& metrics);
};

/// One recently-reclaimed replica, recorded by the LGC sweep for the health
/// auditor's reclaim-safety sampling (a dangling reference found by a deep
/// audit is attributed to the reclaim that severed it when it is still in
/// the ring).
struct ReclaimRecord {
  ObjectId object{kNoObject};
  std::uint64_t at_step{0};
};

/// Per-process scratch buffers for the LGC's epoch marking: the BFS
/// worklist doubles as the visited list (every enqueued object stays in
/// `queue`), and `stubs` records stubs touched this epoch so results can be
/// read back without scanning the whole stub table.  Owned by the process
/// so repeated collections reuse the same capacity — the trace loop does
/// zero heap allocations at steady state.  Mutable state of a logically
/// read-only phase; touched only by whichever single thread is marking
/// this process (the cluster never marks one process from two threads).
struct MarkScratch {
  std::uint64_t epoch{0};
  /// Slots already handed out by drain() (queue[0..head) are processed).
  std::size_t head{0};
  /// BFS worklist of heap slots (Heap::slot_of) — reference resolution is
  /// O(1) index arithmetic against the arena, no side index to build.
  std::vector<std::uint32_t> queue;
  std::vector<StubKey> stubs;
};

/// Per-process scratch for the one-pass SCC snapshot summarizer
/// (gc/cycle/summary.cpp): iterative-Tarjan state over dense heap
/// positions, the edge lists recorded during the DFS, the per-SCC /
/// per-stub seed bitsets, and the emission temporaries.  Owned by the
/// process for the same reason as MarkScratch — capacity is reused across
/// snapshots so steady-state summarization performs no scratch
/// allocations — and under the same single-threaded-per-process contract.
struct SummarizeScratch {
  // Iterative Tarjan over the seed-reachable subgraph, indexed by arena
  // slot (Heap::slot_of / Heap::slab_size extent).
  std::vector<std::uint32_t> num;
  std::vector<std::uint32_t> low;
  std::vector<std::uint32_t> scc;
  std::vector<std::uint8_t> on_stack;
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t node{0};
    std::uint32_t ref{0};
  };
  std::vector<Frame> frames;
  /// Object->object and object->stub edges recorded by the DFS (dense
  /// source position, dense target / stub position).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> obj_edges;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stub_edges;
  /// Condensation-DAG adjacency, bucketed by source SCC (counting sort).
  std::vector<std::uint32_t> edge_offsets;
  std::vector<std::uint32_t> edge_targets;
  /// Seed-reachability bitsets: one ceil(seeds/64)-word slice per SCC and
  /// per stub; bit s set means seed s reaches that SCC / stub.
  std::vector<std::uint64_t> scc_bits;
  std::vector<std::uint64_t> stub_bits;
  std::vector<std::uint64_t> tmp_bits;
  /// Summarization seeds (scion anchors and replicated objects present in
  /// the heap), sorted by id, with flag bits and dense heap positions.
  std::vector<ObjectId> seed_objs;
  std::vector<std::uint8_t> seed_flags;
  std::vector<std::uint32_t> seed_nodes;
  /// Scion anchors with no local replica (reached through stub chains).
  std::vector<ObjectId> remote_anchors;
  /// Stub table in key order (dense stub position -> stub).
  std::vector<const Stub*> stub_list;
  /// Per-seed forward output, shared by every scion on the same anchor.
  std::vector<std::vector<StubKey>> stubs_of_seed;
  std::vector<std::vector<ObjectId>> reps_of_seed;
  // Emission temporaries.
  std::vector<ScionKey> tmp_scion_keys;
  std::vector<ObjectId> tmp_objs;
  std::vector<StubKey> tmp_stub_keys;
};

class Process {
 public:
  Process(ProcessId id, net::Network& network);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] Heap& heap() noexcept { return heap_; }
  [[nodiscard]] const Heap& heap() const noexcept { return heap_; }
  [[nodiscard]] net::Network& network() const noexcept { return *network_; }

  // ---- Mutator operations (§2.1.1) ------------------------------------

  /// Materializes a brand-new object on this process.  Ids are allocated by
  /// the Cluster so they are globally unique.
  Object& create_object(ObjectId id, std::uint32_t payload_bytes = 16);

  /// Reference assignment `from.field = to`.  `from` must be a local
  /// replica; `to` must be resolvable here (local replica or stub), because
  /// in the RM model a process can only assign references it already holds.
  /// Throws std::logic_error otherwise.
  void add_ref(ObjectId from, ObjectId to);

  /// Reference removal `from.field = null`.
  void remove_ref(ObjectId from, ObjectId to);

  /// Root assignment (global/register).  The target may be local or remote
  /// (through a stub).
  void add_root(ObjectId target);
  void remove_root(ObjectId target);

  // ---- Coherence operations (§2.1.2) -----------------------------------

  /// Propagates (replicates or updates) the local replica of `object` to
  /// process `to`: bumps the outProp UC, creates scions for every enclosed
  /// reference ("clean before send"), then ships the content.
  void propagate(ObjectId object, ProcessId to);

  /// Remote invocation through the local stub for `target`; bumps the
  /// stub's IC, pins the remote reference as a transient local root for
  /// `root_steps` steps, and bumps the scion's IC at the callee.
  void invoke(ObjectId target, std::uint32_t root_steps = 1);

  // ---- Message handlers (wired by the Cluster dispatcher) --------------

  void on_propagate(const net::Envelope& env, const PropagateMsg& msg);
  void on_invoke(const net::Envelope& env, const InvokeMsg& msg);

  // ---- Fault-tolerance protocol (docs/FAULTS.md) -----------------------

  /// Callee side of reconciliation: re-creates (or refreshes) the scion for
  /// `msg.anchor` held by env.src, or answers RebindNack when the anchor is
  /// no longer resolvable here (lost with a stale snapshot).
  void on_rebind(const net::Envelope& env, const RebindMsg& msg);

  /// Holder side: the peer no longer knows the anchor — sever the stub
  /// toward env.src and everything bound through it.
  void on_rebind_nack(const net::Envelope& env, const RebindNackMsg& msg);

  /// Drops inProp entries from env.src absent from msg.objects (links whose
  /// parent side died with the sender's lost state).
  void on_prop_sync(const net::Envelope& env, const PropSyncMsg& msg);

  /// Severs the stub `key` plus every reference bound through it.  Refs are
  /// rebound through a local replica or an alternative stub chain when one
  /// exists; otherwise they (and roots left unresolvable) are removed, and
  /// RebindNacks cascade upstream for scions this makes unresolvable.
  void sever_stub(StubKey key);

  /// In fault-tolerant mode an Invoke racing a crash/lease window may reach
  /// a callee without the matching scion or chain stub; the process then
  /// drops it (counted, "rm.invocations_orphaned") instead of treating it
  /// as a protocol violation.  Set by the Cluster once fault injection or
  /// leases are in play; default off, preserving the strict guards.
  void set_fault_tolerant(bool on) noexcept { fault_tolerant_ = on; }
  [[nodiscard]] bool fault_tolerant() const noexcept { return fault_tolerant_; }

  // ---- Lease bookkeeping (docs/FAULTS.md) ------------------------------

  /// Records evidence that `peer` was alive at `step`: every delivery from
  /// it (heartbeats piggyback on existing traffic), plus the out-of-band
  /// keepalive floor the Cluster runs between mutually reachable processes.
  /// Deliberately does NOT bump the mutation epoch — renewals are not
  /// snapshot-relevant.
  void note_heard(ProcessId peer, std::uint64_t step) {
    auto& at = last_heard_[peer];
    if (step > at) at = step;
  }

  /// Last step `peer` was known alive (0 = never heard from).
  [[nodiscard]] std::uint64_t last_heard(ProcessId peer) const {
    const auto it = last_heard_.find(peer);
    return it == last_heard_.end() ? 0 : it->second;
  }

  // ---- Crash/restart persistence (rm/image.h) --------------------------

  /// Consistent copy of the full GC-relevant state, for persistence.
  [[nodiscard]] struct ProcessImage capture_image(std::uint64_t now) const;

  /// Replaces all state with `image` (restart-from-snapshot).  Leases for
  /// every peer named in the image are renewed to `now` — a restarting
  /// process re-registers before anyone may reclaim on its behalf.
  void restore_image(const struct ProcessImage& image, std::uint64_t now);

  /// Advances process-local time by `elapsed` steps: expires transient
  /// invocation roots whose TTL is covered.  The event-driven scheduler
  /// passes the whole skipped stretch at once; callers clamp the jump so
  /// no expiry lands strictly inside it (next_transient_expiry), which
  /// keeps the per-step and time-skip schedules observably identical.
  void tick(std::uint64_t elapsed = 1);

  /// Steps until the earliest transient root expires (its TTL), or 0 when
  /// none are pinned — the scheduler's clamp for time skips.
  [[nodiscard]] std::uint32_t next_transient_expiry() const noexcept;

  /// Earliest virtual step at which gc::Adgc::expire_leases could retire
  /// state here (min over lease-holding peers of last_heard + timeout), or
  /// UINT64_MAX when no peer holds leased state.  Mirrors expire_leases'
  /// peer set exactly so event skips never jump over an expiry.
  [[nodiscard]] std::uint64_t next_lease_expiry(
      std::uint64_t timeout) const noexcept;

  // ---- Resolution helpers ----------------------------------------------

  [[nodiscard]] bool has_replica(ObjectId id) const { return heap_.contains(id); }

  /// All stubs designating `target` (SSP chains allow several), ordered by
  /// target process.  Allocates the result vector; hot paths should use
  /// for_each_stub_for instead.
  [[nodiscard]] std::vector<StubKey> stubs_for(ObjectId target) const;

  /// Visits every stub designating `target` in target-process order,
  /// without allocating (reverse stub index, O(1) amortized lookup).
  template <typename Fn>
  void for_each_stub_for(ObjectId target, Fn&& fn) const {
    auto it = stub_index_.find(target);
    if (it == stub_index_.end()) return;
    for (const Stub* stub : it->second) fn(*stub);
  }

  /// First stub designating `target` in target-process order, or nullptr.
  [[nodiscard]] const Stub* first_stub_for(ObjectId target) const {
    auto it = stub_index_.find(target);
    return it == stub_index_.end() ? nullptr : it->second.front();
  }
  [[nodiscard]] Stub* first_stub_for(ObjectId target) {
    auto it = stub_index_.find(target);
    return it == stub_index_.end() ? nullptr : it->second.front();
  }

  /// True when this process can reach `id` at all: replica, stub, or root.
  [[nodiscard]] bool knows(ObjectId id) const;

  // ---- DGC table access --------------------------------------------------

  [[nodiscard]] const std::map<StubKey, Stub>& stubs() const noexcept { return stubs_; }

  /// Stub-table mutation goes through these so the reverse index
  /// (target -> stubs) stays coherent; there is deliberately no mutable
  /// stubs() accessor.
  Stub& ensure_stub(StubKey key, std::uint64_t created_at);
  bool erase_stub(StubKey key);
  [[nodiscard]] Stub* find_stub(StubKey key);
  [[nodiscard]] const Stub* find_stub(StubKey key) const {
    auto it = stubs_.find(key);
    return it == stubs_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::map<ScionKey, Scion>& scions() noexcept { return scions_; }
  [[nodiscard]] const std::map<ScionKey, Scion>& scions() const noexcept { return scions_; }
  [[nodiscard]] std::vector<InProp>& in_props() noexcept { return in_props_; }
  [[nodiscard]] const std::vector<InProp>& in_props() const noexcept { return in_props_; }
  [[nodiscard]] std::vector<OutProp>& out_props() noexcept { return out_props_; }
  [[nodiscard]] const std::vector<OutProp>& out_props() const noexcept { return out_props_; }

  [[nodiscard]] InProp* find_in_prop(ObjectId object, ProcessId from);
  [[nodiscard]] OutProp* find_out_prop(ObjectId object, ProcessId to);
  [[nodiscard]] const InProp* find_in_prop(ObjectId object, ProcessId from) const;
  [[nodiscard]] const OutProp* find_out_prop(ObjectId object, ProcessId to) const;
  [[nodiscard]] bool is_replicated(ObjectId object) const;

  /// inProp partners (parent processes) / outProp partners (children).
  [[nodiscard]] std::vector<ProcessId> prop_parents(ObjectId object) const;
  [[nodiscard]] std::vector<ProcessId> prop_children(ObjectId object) const;

  /// Transient roots created by in-flight invocations; the LGC treats them
  /// exactly like mutator roots.
  [[nodiscard]] const std::map<ObjectId, std::uint32_t>& transient_roots() const noexcept {
    return transient_roots_;
  }
  void pin_transient_root(ObjectId target, std::uint32_t steps);

  /// Highest Propagate link-sequence number delivered from `src`; the
  /// NewSetStubs causality horizon (see tables.h / adgc).
  [[nodiscard]] std::uint64_t delivered_prop_seq(ProcessId src) const;

  /// Processes that may hold scions matching our stubs (every process we
  /// ever created a stub toward).  The ADGC sends NewSetStubs to each of
  /// them — including an empty set after the last stub to a peer died, so
  /// the peer can drop its scions; the peer is then forgotten.
  [[nodiscard]] std::set<ProcessId>& stub_peers() noexcept { return stub_peers_; }

  /// Monotonic local-collection counter; stamped on outgoing NewSetStubs.
  std::uint64_t next_collection_epoch() noexcept { return ++collection_epoch_; }

  /// Highest NewSetStubs epoch accepted from each peer (stale-set guard).
  [[nodiscard]] std::map<ProcessId, std::uint64_t>& newsetstubs_epochs() noexcept {
    return newsetstubs_epochs_;
  }

  // ---- Reclaim history (health auditor) --------------------------------

  static constexpr std::size_t kReclaimRing = 64;

  /// Records a reclaim into the fixed ring (oldest entry overwritten).
  void note_reclaimed(ObjectId id, std::uint64_t step) noexcept {
    reclaim_ring_[reclaim_ring_next_] = ReclaimRecord{id, step};
    reclaim_ring_next_ = (reclaim_ring_next_ + 1) % kReclaimRing;
    ++reclaims_noted_;
  }
  [[nodiscard]] const std::array<ReclaimRecord, kReclaimRing>& reclaim_ring()
      const noexcept {
    return reclaim_ring_;
  }
  /// Total reclaims ever recorded; min(reclaims_noted, kReclaimRing) ring
  /// entries are valid.
  [[nodiscard]] std::uint64_t reclaims_noted() const noexcept {
    return reclaims_noted_;
  }

  /// Per-process counters: "rm.propagations", "rm.invocations", ...
  [[nodiscard]] const util::Metrics& metrics() const noexcept { return metrics_; }
  util::Metrics& metrics() noexcept { return metrics_; }

  /// Hot-path counter handles (same storage as metrics()).
  [[nodiscard]] ProcessCounters& counters() noexcept { return counters_; }

  /// Flight-recorder sink for this process's GC events (obs/recorder.h) —
  /// borrowed from the owning Cluster, null in standalone use.  The LGC
  /// sweep and ADGC reclaim/lease paths record through it.
  void set_recorder(obs::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::FlightRecorder* recorder() const noexcept {
    return recorder_;
  }

  /// Per-cycle cost ledger (obs/ledger.h) — same borrowing rules as the
  /// recorder.  The LGC sweep reports reclaims and the detector reports
  /// cut application through it.
  void set_ledger(obs::Ledger* ledger) noexcept { ledger_ = ledger; }
  [[nodiscard]] obs::Ledger* ledger() const noexcept { return ledger_; }

  // ---- LGC marking support --------------------------------------------

  /// Starts a fresh mark epoch: bumps the epoch (invalidating every
  /// object/stub mask lazily) and rewinds the scratch buffers, keeping
  /// their capacity.  Returns the scratch; const because marking is a
  /// read-only phase over the object graph.
  MarkScratch& begin_mark_epoch() const {
    ++scratch_.epoch;
    scratch_.head = 0;
    scratch_.queue.clear();
    scratch_.stubs.clear();
    return scratch_;
  }

  /// Scratch of the *current* epoch (for result read-back after tracing).
  [[nodiscard]] MarkScratch& mark_scratch() const { return scratch_; }

  /// Scratch for the one-pass snapshot summarizer (gc/cycle/summary.cpp);
  /// const for the same reason as mark_scratch — summarization is a
  /// read-only phase over the object graph.
  [[nodiscard]] SummarizeScratch& summarize_scratch() const {
    return sum_scratch_;
  }

  // ---- Snapshot identity (dirty-epoch tracking) ------------------------

  /// Monotonic mutation epoch: bumped by every operation that can change
  /// this process's snapshot summary — reference/root assignment, transient
  /// roots, propagation and invocation, stub/scion/prop-table changes, and
  /// sweeps.  Cluster-level snapshot reuse compares epochs to skip
  /// re-summarizing quiescent processes (O(1) per round instead of a full
  /// summarization), and a collection at the epoch its kept mark is tagged
  /// with reuses that mark.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
    return mutation_epoch_;
  }

  /// Monotonic root epoch: the part of mutation_epoch() that can change
  /// what the LGC's root trace reaches — objects (creation, references,
  /// replica content), roots and transient roots, and stubs.  Scion and
  /// propagation-list edits leave it alone, so a collection at the root
  /// epoch its kept mark is tagged with retraces only the remotely
  /// anchored families (gc::Lgc::mark_remote).
  [[nodiscard]] std::uint64_t root_epoch() const noexcept {
    return root_epoch_;
  }

  /// Records a summary-relevant mutation (see mutation_epoch()) that may
  /// also change what the roots reach: bumps both epochs.  The default —
  /// a site that could use note_remote_mutation() but does not costs a
  /// collection its root-trace reuse, never its correctness.
  void note_mutation() noexcept {
    ++mutation_epoch_;
    ++root_epoch_;
  }

  /// Records a mutation confined to scions and propagation lists (their
  /// entries, counters and flags): bumps mutation_epoch() only.
  void note_remote_mutation() noexcept { ++mutation_epoch_; }

 private:
  /// Creates or refreshes the scions for `object`'s enclosed references
  /// toward `to` ("clean before send"); `seq` is recorded as the creation
  /// horizon once the Propagate is sent.
  void export_references(const Object& object, ProcessId to, std::uint64_t seq);

  ProcessId id_;
  net::Network* network_;
  Heap heap_;
  std::map<StubKey, Stub> stubs_;
  /// Reverse stub index: target object -> stubs designating it, ordered by
  /// target process (pointers into stubs_, which has stable addresses).
  std::unordered_map<ObjectId, std::vector<Stub*>> stub_index_;
  mutable MarkScratch scratch_;
  mutable SummarizeScratch sum_scratch_;
  std::uint64_t mutation_epoch_{0};
  std::uint64_t root_epoch_{0};
  std::map<ScionKey, Scion> scions_;
  std::vector<InProp> in_props_;
  std::vector<OutProp> out_props_;
  std::map<ObjectId, std::uint32_t> transient_roots_;
  std::map<ProcessId, std::uint64_t> delivered_prop_seq_;
  std::set<ProcessId> stub_peers_;
  std::uint64_t collection_epoch_{0};
  std::array<ReclaimRecord, kReclaimRing> reclaim_ring_{};
  std::size_t reclaim_ring_next_{0};
  std::uint64_t reclaims_noted_{0};
  std::map<ProcessId, std::uint64_t> newsetstubs_epochs_;
  /// Lease table: last step each peer was known alive (see note_heard).
  std::map<ProcessId, std::uint64_t> last_heard_;
  bool fault_tolerant_{false};
  obs::FlightRecorder* recorder_{nullptr};
  obs::Ledger* ledger_{nullptr};
  util::Metrics metrics_;
  ProcessCounters counters_{metrics_};
};

}  // namespace rgc::rm
