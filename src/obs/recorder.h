// Flight recorder — always-on, fixed-capacity event history for post-mortem
// debugging of chaos runs (docs/OBSERVABILITY.md "Flight recorder & replay").
//
// Every transport event (send/deliver/drop/duplicate, via the
// net::Network::Observer hooks), GC phase transition, sweep, reclaimed
// object, reclaim decision, lease expiry, fault (kill/restart/persist/
// partition/heal), detection start, verdict and applied cut lands in a
// per-process binary ring of fixed-layout RecEvents.  Appends are O(1) and
// allocation-free in steady state (each ring is preallocated the first time
// its pid appears), so the recorder can stay on for every run like the
// HealthAuditor.  When something goes wrong — an audit ERROR, or SIGABRT —
// the rings dump to a versioned, checksummed `.rgcrec` file that
// obs::replay (replay.h) re-executes and diffs event-for-event.
//
// The same stream, live or decoded from a recording, renders as a lineage
// timeline (obs/timeline.h) and feeds the cycle cost ledger (obs/ledger.h),
// which each append calls; capacity 0 keeps no rings and only feeds it.
//
// Determinism contract: the recorder is only fed from the simulation's
// serial phases (network step/send, serial sweep/digest, cluster fault
// paths), so for a fixed seed + workload the encoded recording is
// byte-identical for any ClusterConfig::threads — which is exactly what
// replay relies on.  ClusterConfig::threads is deliberately NOT part of the
// stamp for the same reason.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <map>
#include <vector>

#include "net/network.h"
#include "util/ids.h"
#include "util/metrics.h"

namespace rgc::gc {
struct Cdm;
}  // namespace rgc::gc

namespace rgc::obs {

class Ledger;

/// Typed event classes.  Values are part of the `.rgcrec` format — append
/// only, never renumber.
enum class RecKind : std::uint8_t {
  // Transport events: b = detection id of a CDM or Cut message, else 0;
  // weight = Message::weight(); msg = the message's RecMsg; c = the object
  // the message names (a CDM's candidate, a Cut's member, a PropCut's,
  // Propagate's, Unreachable's or Reclaim's object, an Invoke's target);
  // d = a CDM's detection start step or a PropCut's detection id.
  kSend = 1,       // pid=src, peer=dst, detail=msg kind, a=link seq, b
  kDeliver = 2,    // pid=dst, peer=src, detail=msg kind, a=link seq, b
  kDrop = 3,       // pid=src, peer=dst, detail=msg kind, a=link seq, b
  kDuplicate = 4,  // pid=src, peer=dst, detail=msg kind, a=link seq, b
  kPhase = 5,      // global; detail=RecPhase, a/b=phase payload
  kSweep = 6,      // pid=collector, a=objects reclaimed, b=objects traced
  kReclaim = 7,    // pid=unlinker, peer=Reclaim sender, a=object id
  kLeaseExpiry = 8,  // pid=expirer, a=scions retired by the sweep
  kKill = 9,       // pid=victim
  kRestart = 10,   // pid=subject, a=incarnation, b=1 when rehydrated
  kPersist = 11,   // pid=subject, a=image bytes
  kPartition = 12, // global, a=group count
  kHeal = 13,      // global
  kAuditError = 14,  // global, a=total audit errors so far
  kDetectStart = 15,  // pid=initiator, a=candidate object, b=detection id
  kVerdict = 16,  // pid=prover, a, b as kDetectStart; c=start, d=unlinked_at
  // After its kVerdict, one per distinct target object but the candidate
  // (at most kLedgerMaxMembers): a=object, peer=its replica's process, b.
  kVerdictMember = 17,
  kCutApplied = 18,  // pid=cutter, b; a=scions, c=props, d=stale cuts
  kFreed = 19,       // pid=sweeping process, a=object reclaimed
};

/// A transport event's message type (RecEvent::msg), for the types whose
/// fields the stream carries.  Part of the `.rgcrec` format.
enum class RecMsg : std::uint8_t {
  kOther, kCdm, kCut, kPropCut, kPropagate, kInvoke, kUnreachable, kReclaim
};

/// kPhase detail codes.
enum RecPhase : std::uint16_t {
  kPhaseCollectRound = 1,  // a=objects reclaimed, b=live processes
  kPhaseSnapshotAll = 2,   // a=live processes
};

[[nodiscard]] const char* to_string(RecKind kind);

/// One recorded event.  Fixed 64-byte wire layout (field by field, little
/// endian), the same size in memory; `seq` is a recorder-global append
/// counter, so the merge of all rings by seq reproduces the exact global
/// event order.
struct RecEvent {
  std::uint64_t seq{0};
  std::uint64_t step{0};
  std::uint64_t a{0};
  std::uint64_t b{0};
  std::uint64_t c{0};
  std::uint64_t d{0};
  std::uint32_t pid{0};
  std::uint32_t peer{0};
  std::uint32_t weight{0};
  std::uint16_t detail{0};
  std::uint8_t kind{0};
  std::uint8_t msg{0};

  friend bool operator==(const RecEvent&, const RecEvent&) = default;
};

/// Run identity stored in the file header: enough to re-create the workload
/// (obs::replay does exactly that).  Probabilities are stored as the exact
/// bit pattern of the double so a replayed Rng sees identical parameters.
struct RecStamp {
  std::uint64_t seed{0};
  std::uint32_t processes{0};
  std::uint64_t drop_bits{0};
  std::uint64_t dup_bits{0};
  std::uint32_t max_delay{1};
  std::uint64_t lease_timeout{0};
  std::uint32_t rounds{0};
  std::uint32_t capacity{0};
  std::uint32_t min_delay{1};  // NetworkConfig::min_delay: the transit floor

  friend bool operator==(const RecStamp&, const RecStamp&) = default;
};

/// One decoded ring: the events attributed to `pid` (raw(kNoProcess) is the
/// global ring), oldest first, plus how many older events the ring dropped.
struct RecRing {
  std::uint32_t pid{0};
  std::uint64_t dropped{0};
  std::vector<RecEvent> events;
};

/// A fully decoded `.rgcrec` recording.
struct RecordedRun {
  RecStamp stamp;
  std::uint64_t next_seq{0};
  std::uint64_t appended{0};
  std::uint64_t dropped{0};
  /// Interned message-kind names; RecEvent::detail indexes this table for
  /// the transport kinds.
  std::vector<std::string> kinds;
  std::vector<RecRing> rings;
  /// All ring events merged by global seq (ascending) — the causal order.
  std::vector<RecEvent> events;
};

/// First point where a live event stream stopped matching a reference
/// recording (FlightRecorder::set_reference).
struct Divergence {
  bool found{false};
  /// True when the live run produced an event past the reference's end.
  bool extra{false};
  std::uint64_t seq{0};
  RecEvent expected{};
  RecEvent actual{};
};

struct RecorderConfig {
  /// Events retained per ring (per process + one global ring); 0 keeps no
  /// rings (the stream then only feeds the ledger).
  std::size_t capacity{4096};
};

/// The recorder itself.  Owned by core::Cluster (ClusterConfig::
/// record_capacity, or ledger_capacity alone), fed via
/// Network::add_observer plus direct hook calls from the cluster/GC serial
/// phases.
class FlightRecorder final : public net::Network::Observer {
 public:
  /// `net` supplies the clock events are stamped with (without one they
  /// stamp with the envelope send step or 0); every appended event goes to
  /// `ledger`.  Both are borrowed and may be null.
  explicit FlightRecorder(RecorderConfig config = {},
                          const net::Network* net = nullptr,
                          Ledger* ledger = nullptr);

  // ---- Transport hooks (net::Network::Observer) -------------------------
  void on_send(const net::Envelope& env) override;
  void on_deliver(const net::Envelope& env) override;
  void on_drop(const net::Envelope& env) override;
  void on_duplicate(const net::Envelope& env) override;

  // ---- GC / cluster hooks (serial phases only — see header comment) -----
  /// Appends a `kind` event whose fields follow RecKind's field map (pid
  /// kNoProcess for a global event).
  void append(RecKind kind, ProcessId pid, std::uint64_t a = 0,
              std::uint64_t b = 0, ProcessId peer = kNoProcess);
  void phase(RecPhase code, std::uint64_t a = 0, std::uint64_t b = 0);
  /// `at` proved the cycle `cdm` describes (the leaf of its lineage): one
  /// kVerdict, then its kVerdictMember events.  `unlinked` is the
  /// candidate's unlinked_at stamp (0 when unknown).
  void verdict(ProcessId at, const gc::Cdm& cdm, std::uint64_t unlinked);
  /// A process applied (or found stale) one of a verdict's Cuts.
  void cut_applied(ProcessId pid, std::uint64_t detection_id,
                   std::uint64_t scions_cut, std::uint64_t props_cut,
                   std::uint64_t stale);

  // ---- Serialization ----------------------------------------------------
  /// Encodes every ring into the versioned `.rgcrec` byte format
  /// (checksummed framing in the style of gc/cycle/snapshot_io).
  [[nodiscard]] std::string encode(const RecStamp& stamp) const;
  /// Decodes bytes produced by encode(); nullopt on any corruption
  /// (magic/version mismatch, truncation, checksum failure).
  [[nodiscard]] static std::optional<RecordedRun> decode(
      const std::string& bytes);

  // ---- Live replay diffing ----------------------------------------------
  /// Installs a reference recording (borrowed; caller keeps it alive).
  /// Every subsequent append is checked against the reference event with
  /// the same global seq; the first mismatch latches into divergence().
  void set_reference(const RecordedRun* reference) noexcept {
    reference_ = reference;
  }
  [[nodiscard]] const Divergence& divergence() const noexcept {
    return divergence_;
  }

  // ---- Introspection ----------------------------------------------------
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently retained across all rings.
  [[nodiscard]] std::uint64_t depth() const noexcept { return retained_; }
  /// Events ever appended / lost to ring overwrite.
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Recorder-local gauges (recorder.depth, recorder.appended_total,
  /// recorder.dropped_total, recorder.capacity), read off the counters
  /// above.  A private registry, deliberately outside the deterministic
  /// cluster report.
  [[nodiscard]] util::Metrics metrics() const;

 private:
  struct Ring {
    std::vector<RecEvent> buf;  // capacity_ reserved on creation
    std::uint64_t count{0};     // events ever appended to this ring
  };

  /// Stamps `ev` with the next seq and appends it.
  void record(RecEvent ev);
  void transport(RecKind kind, std::uint32_t ring_pid,
                 const net::Envelope& env);
  std::uint16_t intern(const char* kind);
  [[nodiscard]] std::uint64_t clock(std::uint64_t fallback) const noexcept;

  std::size_t capacity_;
  const net::Network* net_{nullptr};
  Ledger* ledger_{nullptr};
  std::map<std::uint32_t, Ring> rings_;
  std::vector<std::string> kinds_;
  std::map<std::string, std::uint16_t, std::less<>> kind_ids_;
  /// RecMsg of each interned kind, by kind id.
  std::vector<RecMsg> kind_msgs_;
  std::uint64_t next_seq_{0};
  std::uint64_t appended_{0};
  std::uint64_t dropped_{0};
  std::uint64_t retained_{0};
  const RecordedRun* reference_{nullptr};
  Divergence divergence_{};
};

/// Appends the fixed 64-byte wire layout of `event`.
void encode_event(std::string& out, const RecEvent& event);

/// Encodes and writes the recording to `path`; returns false on I/O error.
bool dump_recording(const FlightRecorder& recorder, const RecStamp& stamp,
                    const std::string& path);

/// Installs a SIGABRT handler that best-effort dumps `recorder` to `path`
/// before re-raising (the crash-dump leg: an assert/abort in a recorded run
/// still leaves the flight recording behind).  Pass nullptr to disarm.
void arm_abort_dump(FlightRecorder* recorder, RecStamp stamp,
                    std::string path);

}  // namespace rgc::obs
