// Per-cycle cost ledger — critical-path attribution for detection latency
// and CDM traffic (docs/OBSERVABILITY.md "Cycle cost ledger").
//
// The aggregate histograms (cycle.steps_to_detection, cdm.hops) say *that*
// detection took N steps; the ledger says *why*: for every garbage cycle the
// detector proves, it records the full lifecycle — first unlink of the
// candidate, detection start, every CDM hop (send/deliver step, queue-wait
// vs in-flight split, message weight), the verdict, the Cut fan-out and the
// sweep that finally frees the candidate — and extracts the *causal
// critical path*: the unique send/deliver chain from the detection start to
// the verdict CDM through the detection's message tree.  End-to-end reclaim
// latency decomposes exactly along that chain:
//
//   e2e = detect + cut + sweep
//   detect = sum over critical hops of (digest + wait + transit)
//
// where, for a hop delivered at step d and sent at step s whose causing
// delivery landed at step p:  digest = s - p (handler/digest time at the
// sender), transit = NetworkConfig::min_delay (the in-flight floor), and
// wait = d - s - transit (delay jitter plus reliable-FIFO clamping — the
// queueing share).  The telescoping sum makes the identity hold by
// construction; tests/ledger_test.cpp asserts it on real runs.
//
// Traffic attribution: CDM, Cut and PropCut messages carry the detection id
// and are charged to their cycle directly; ADGC (Unreachable/Reclaim) and
// coherence (Propagate/Invoke) messages naming a proven cycle's member
// objects during the verdict→reclaim window are charged to that cycle's
// adgc/coherence component.  All totals are in Message::weight() units.
//
// Input: the ledger is a function of the flight recorder's event stream
// (obs/recorder.h), fed at each append or from a decoded `.rgcrec`.  A hop's
// parent is the latest CDM delivery of its detection at the sending process
// (the detection start when none): the timeline's lineage rule.
//
// Determinism contract: the stream is appended only from serial phases, so
// the ledger's contents — entries, JSONL bytes, every ledger.* metric — are
// identical for any ClusterConfig::threads and for event-skip vs per-step
// schedules.  Unlike the flight recorder's, its registry is deterministic
// and therefore *included* in the cluster report.
//
// Allocation bounds: at most kLedgerMaxLive concurrently tracked detections
// (oldest unproven evicted first), kLedgerMaxHops hop records per detection
// and `capacity` retained completed entries; overflow is counted, never
// grown.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "util/ids.h"
#include "util/metrics.h"

namespace rgc::obs {

/// Concurrently tracked live detections.
inline constexpr std::size_t kLedgerMaxLive = 64;
/// Hop records per detection (the CDM tree, not just the chain).
inline constexpr std::size_t kLedgerMaxHops = 256;
/// Cycle members tracked for reclaim/traffic attribution per entry.
inline constexpr std::size_t kLedgerMaxMembers = 64;

/// One hop of the causal critical path (start -> ... -> verdict CDM).
struct LedgerHop {
  ProcessId src{kNoProcess};
  ProcessId dst{kNoProcess};
  std::uint64_t sent_step{0};
  std::uint64_t deliver_step{0};
  /// sent_step minus the causing delivery's step (detection start for the
  /// first hop): handler/digest time at the sender.
  std::uint64_t digest_steps{0};
  /// Queueing share of the latency: jitter + reliable-FIFO clamping.
  std::uint64_t wait_steps{0};
  /// In-flight floor (NetworkConfig::min_delay, clamped to the latency).
  std::uint64_t transit_steps{0};
  /// Message::weight of the CDM carried by this hop.
  std::uint64_t weight{0};
};

/// One proven cycle's cost record.  Completed entries (candidate reclaimed)
/// carry the full decomposition; live ones are partial.
struct LedgerEntry {
  std::uint64_t detection_id{0};
  ObjectId candidate{kNoObject};
  ProcessId candidate_process{kNoProcess};
  ProcessId verdict_process{kNoProcess};

  // ---- Lifecycle steps -------------------------------------------------
  /// rm::Object::unlinked_at of the candidate at verdict time (0 unknown):
  /// when it lost its last reference, i.e. when it *became* garbage.
  std::uint64_t unlinked_step{0};
  std::uint64_t started_step{0};
  std::uint64_t detected_step{0};
  std::uint64_t cut_sent_step{0};
  std::uint64_t cut_delivered_step{0};
  std::uint64_t reclaimed_step{0};

  // ---- Decomposition (steps); see header comment for the identity ------
  std::uint64_t detect_steps{0};
  std::uint64_t digest_steps{0};
  std::uint64_t wait_steps{0};
  std::uint64_t transit_steps{0};
  std::uint64_t cut_wait_steps{0};
  std::uint64_t cut_transit_steps{0};
  std::uint64_t sweep_wait_steps{0};
  std::uint64_t e2e_steps{0};

  // ---- Traffic attribution (Message::weight units) ---------------------
  std::uint64_t cdm_msgs{0};
  std::uint64_t cdm_weight{0};
  std::uint64_t cdm_dropped{0};
  std::uint64_t cut_msgs{0};  // Cut + PropCut, matched by detection id
  std::uint64_t cut_weight{0};
  std::uint64_t adgc_msgs{0};  // Unreachable/Reclaim naming members
  std::uint64_t adgc_weight{0};
  std::uint64_t coherence_msgs{0};  // Propagate/Invoke naming members
  std::uint64_t coherence_weight{0};

  // ---- Outcome ---------------------------------------------------------
  std::uint64_t hops{0};  // CDM deliveries on this detection
  std::uint64_t scions_cut{0};
  std::uint64_t props_cut{0};
  std::uint64_t cuts_stale{0};
  std::uint64_t members{0};
  std::uint64_t members_reclaimed{0};
  bool complete{false};

  /// The causal chain, start-most hop first; empty for detections proven
  /// locally without any CDM leaving the start process.
  std::vector<LedgerHop> path;

  /// Dominant-latency blame label for the slowest single contribution, e.g.
  /// "wait P1->P2", "digest P0", "cut-wait", "sweep P3".
  [[nodiscard]] std::string dominant() const;

  /// One JSON object (single line, no trailing newline).
  [[nodiscard]] std::string to_json() const;
};

/// The ledger.  Owned by core::Cluster (ClusterConfig::ledger_capacity) and
/// fed by its flight recorder; rebuild one from a recording by consuming
/// the decoded events in seq order.
class Ledger final {
 public:
  /// Retains `capacity` completed entries (a ring; oldest overwritten).
  /// `transit_floor` is NetworkConfig::min_delay (RecStamp::min_delay of a
  /// recording): the in-flight share of every hop's latency.
  explicit Ledger(std::size_t capacity = 256,
                  std::uint64_t transit_floor = 1);

  /// Folds in the next event of the stream.  A verdict proves its cycle
  /// (first verdict wins; duplicates are counted and ignored), a cut
  /// applied accumulates on its entry, and the candidate's kFreed completes
  /// the entry (member reclaims are counted).
  void consume(const RecEvent& event);

  // ---- Queries ----------------------------------------------------------
  /// Completed entries, oldest first (the retained ring).
  [[nodiscard]] std::vector<const LedgerEntry*> entries() const;
  /// Completed entries sorted by e2e_steps descending, at most k.
  [[nodiscard]] std::vector<const LedgerEntry*> slowest(std::size_t k) const;
  /// Entry (completed or live) for a detection id; null when unknown.
  [[nodiscard]] const LedgerEntry* find(std::uint64_t detection_id) const;
  /// Human-readable hop-by-hop drill-down (sim_cli --explain-cycle).
  /// detection_id 0 explains the slowest completed cycle.
  [[nodiscard]] std::string explain(std::uint64_t detection_id) const;
  /// One JSON object per completed entry, oldest first.
  void write_jsonl(std::ostream& os) const;

  [[nodiscard]] std::size_t live() const noexcept {
    return live_index_.size();
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return reclaimed_.value();
  }
  /// Deterministic ledger.* counters/gauges/histograms — folded into the
  /// cluster report and the Prometheus exposition.
  [[nodiscard]] const util::Metrics& metrics() const noexcept {
    return metrics_;
  }

 private:
  static constexpr std::uint32_t kNoHop = 0xffffffff;

  /// One recorded CDM hop in a live detection's message tree.
  struct HopRec {
    ProcessId src{kNoProcess};
    ProcessId dst{kNoProcess};
    std::uint64_t seq{0};  // link seq: matches a deliver to its send
    std::uint64_t sent_step{0};
    std::uint64_t deliver_step{0};  // 0 while in flight (or dropped)
    std::uint64_t weight{0};
    std::uint32_t parent{kNoHop};  // hop whose delivery caused this send
  };

  struct LiveRec {
    bool used{false};
    LedgerEntry entry;
    std::vector<HopRec> hops;
    /// pid -> index of the last hop delivered there (send parenting).
    std::map<ProcessId, std::uint32_t> last_delivered;
    bool proven{false};
    std::uint32_t verdict_hop{kNoHop};
    /// Cut send/deliver matching (first Cut toward the candidate).
    std::uint64_t cut_seq{0};
    bool cut_seen{false};
    ProcessId cut_src{kNoProcess};
    bool hop_overflow{false};
  };

  /// Live record for `id`; -1 when untracked.
  [[nodiscard]] int slot_of(std::uint64_t id) const;
  /// Live record for `id`, created (evicting if needed) when absent from
  /// the detection's candidate and start step.
  int track(std::uint64_t id, ObjectId candidate, std::uint64_t started_step);
  /// Awaits `object`'s reclaim on `slot`'s entry, up to kLedgerMaxMembers.
  void await_member(int slot, ObjectId object);
  void release(int slot);
  void finalize(int slot, std::uint64_t step);
  void attribute_member(ObjectId object, bool adgc, std::uint64_t weight);

  void on_send(const RecEvent& e);
  void on_deliver(const RecEvent& e);
  void cdm_send(const RecEvent& e);
  void cycle_proven(const RecEvent& e);
  void object_reclaimed(ProcessId pid, ObjectId object, std::uint64_t step);

  std::size_t capacity_;
  std::uint64_t transit_floor_;
  std::vector<LiveRec> live_;
  std::map<std::uint64_t, std::uint32_t> live_index_;  // detection -> slot
  /// Proven cycles' member objects awaiting reclaim -> live slot.
  std::map<ObjectId, std::uint32_t> awaiting_;
  /// Detection whose verdict the next kVerdictMember events belong to (0
  /// after a duplicate verdict: its members are ignored).
  std::uint64_t members_for_{0};
  /// Completed-entry ring (reclaimed_ counts the entries ever completed).
  std::vector<LedgerEntry> done_;
  std::size_t done_next_{0};

  util::Metrics metrics_;
  util::Counter tracked_;
  util::Counter proven_;
  util::Counter reclaimed_;
  util::Counter evictions_;
  util::Counter overwritten_;
  util::Counter hop_overflows_;
  util::Counter duplicate_verdicts_;
  util::Counter cdm_msgs_;
  util::Counter cdm_weight_;
  util::Counter cdm_dropped_;
  util::Counter cdm_duplicated_;
  util::Counter cut_msgs_;
  util::Counter cut_weight_;
  util::Counter adgc_msgs_;
  util::Counter adgc_weight_;
  util::Counter coherence_msgs_;
  util::Counter coherence_weight_;
  util::Gauge live_gauge_;
  util::Gauge completed_gauge_;
};

}  // namespace rgc::obs
