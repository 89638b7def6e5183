// Step-driven asynchronous network simulator.
//
// This is the C++ equivalent of the CLOS simulator the paper used for its
// scalability experiments (§4): "Each simulation step represents a virtual
// time interval when processes can read incoming messages and compute
// outgoing messages."  A message sent during step k becomes deliverable at
// step k + delay (delay >= 1); handlers invoked during step() may send new
// messages, which are then delivered in a later step — never the current
// one.  Delivery order within a step is deterministic.
//
// Optional fault injection (drop / duplicate / jitter) exercises the
// protocols' tolerance of an unreliable transport; it is off by default.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace rgc::net {

struct NetworkConfig {
  std::uint64_t seed{1};
  /// Uniform delivery delay range in steps, inclusive.  min_delay >= 1.
  std::uint32_t min_delay{1};
  std::uint32_t max_delay{1};
  /// Probability that a message is silently lost.
  double drop_probability{0.0};
  /// Probability that a message is delivered twice.
  double duplicate_probability{0.0};
};

class Network {
 public:
  /// Receives each delivered message.  The handler is the message's last
  /// reader — every observer has already seen it, and the network destroys
  /// it as soon as the handler returns — so it may move state out of `msg`
  /// (the same object as `env.msg`) instead of copying it.
  using Handler = std::function<void(const Envelope& env, Message& msg)>;

  /// Transport-event observer: sees every send/deliver/drop/duplicate with
  /// the full envelope, before any protocol handler runs.  Used by the
  /// health auditor for message-conservation accounting; default methods do
  /// nothing so observers implement only what they need.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void on_send(const Envelope&) {}
    virtual void on_deliver(const Envelope&) {}
    virtual void on_drop(const Envelope&) {}
    virtual void on_duplicate(const Envelope&) {}
  };

  /// Per-kind cumulative flow counts plus the live in-flight population.
  /// Conservation invariant: sent + duplicated == delivered + dropped +
  /// in_flight at every step boundary.
  struct KindFlow {
    std::string kind;
    std::uint64_t sent{0};
    std::uint64_t delivered{0};
    std::uint64_t dropped{0};
    std::uint64_t duplicated{0};
    std::uint64_t in_flight{0};
  };

  explicit Network(NetworkConfig config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the handler that receives messages addressed to `process`.
  /// Must be called before the first delivery to that process.  Re-attaching
  /// a previously detached (crashed) process clears its dead marker — the
  /// restart path.
  void attach(ProcessId process, Handler handler);

  /// Crash semantics: removes the handler, marks the process dead, and purges
  /// every in-flight message to or from it (each purge is accounted as a
  /// drop, so per-kind conservation still holds).  Until a later attach(),
  /// sends addressed to the process are dropped at the source — a crashed
  /// node neither receives nor buffers.
  void detach(ProcessId process);

  /// True when `process` was detached by detach() and not re-attached.
  [[nodiscard]] bool is_dead(ProcessId process) const {
    return dead_.contains(process);
  }

  /// Installs a partition mask: processes in different groups cannot talk.
  /// Messages crossing the mask are dropped deterministically at send time,
  /// and crossing in-flight messages are purged immediately (loss semantics
  /// — heal re-delivers nothing).  Processes not named in any group belong
  /// to group 0.
  void set_partition(const std::vector<std::vector<ProcessId>>& groups);

  /// Lifts the partition mask.  Nothing lost during the partition comes
  /// back; recovery is the protocols' job (Cluster::heal drives it).
  void clear_partition();

  [[nodiscard]] bool partitioned() const noexcept {
    return !partition_group_.empty();
  }

  /// Snapshot of the current mask (pid -> group id; absent = group 0).
  [[nodiscard]] const std::map<ProcessId, std::uint32_t>& partition_groups()
      const noexcept {
    return partition_group_;
  }

  /// True when a message sent from `src` can currently reach `dst`: both
  /// endpoints alive and on the same side of any partition mask.
  [[nodiscard]] bool reachable(ProcessId src, ProcessId dst) const;

  /// Registers a transport-event observer.  Observers are borrowed, not
  /// owned — each must outlive the network — and see every event in
  /// registration order (a fixed, deterministic sequence).
  void add_observer(Observer* observer);

  /// Queues a message; it is deliverable no earlier than the next step.
  /// Returns the per-(src,dst)-link sequence number assigned to it (the
  /// same value the receiver sees in Envelope::seq), which protocols use
  /// for causality horizons.
  std::uint64_t send(ProcessId src, ProcessId dst, MessagePtr msg);

  /// Delivers every message due at the next step and advances virtual time.
  /// Returns true while messages remain in flight after the step.
  bool step();

  /// Earliest virtual step at which an in-flight message becomes
  /// deliverable, or UINT64_MAX when the network is idle.  The
  /// discrete-event scheduler's clamp.
  [[nodiscard]] std::uint64_t next_due() const noexcept {
    return in_flight_.empty() ? ~std::uint64_t{0} : in_flight_.begin()->first;
  }

  /// Advances virtual time straight to `target` without executing the
  /// intervening steps.  Only legal when no message is due at or before
  /// `target` (next_due() > target): the skipped stretch is provably
  /// silent, so the jump is observationally identical to stepping through
  /// it — same deliveries at the same virtual steps.
  void skip_to(std::uint64_t target);

  /// Virtual time (number of completed steps).
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] bool idle() const noexcept { return in_flight_count_ == 0; }

  /// Cumulative counters: "net.sent.<kind>", "net.delivered.<kind>",
  /// "net.dropped", "net.weight.<kind>"; gauge "net.queue_depth" and the
  /// like-named histogram sampled once per step.
  [[nodiscard]] const util::Metrics& metrics() const noexcept { return metrics_; }
  util::Metrics& metrics() noexcept { return metrics_; }

  /// Messages currently in flight.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_count_; }

  /// Number of messages of `kind` *sent during* step `step` (for Figure 8's
  /// per-step CDM series).  Steps with no such sends report zero.
  [[nodiscard]] std::uint64_t sent_at_step(const std::string& kind,
                                           std::uint64_t step) const;

  /// Total messages of `kind` sent so far.
  [[nodiscard]] std::uint64_t total_sent(const std::string& kind) const;

  /// Flow accounting for every message kind seen so far, kind-sorted.
  [[nodiscard]] std::vector<KindFlow> kind_flows() const;

  /// Messages of `kind` currently in flight (zero for unseen kinds).
  [[nodiscard]] std::uint64_t in_flight_of(std::string_view kind) const;

 private:
  struct InFlight {
    ProcessId src;
    ProcessId dst;
    std::uint64_t seq;
    std::uint64_t sent_at;
    MessagePtr msg;
  };

  /// Per-kind counter handles resolved once per kind instead of one
  /// string-concatenation + map lookup per message, plus the kind's small
  /// interned id — the per-step send series indexes by it, so the send
  /// path never touches a string map.
  struct KindCounters {
    std::uint32_t id;
    util::Counter sent;
    util::Counter delivered;
    util::Counter weight;
    util::Counter dropped;
    util::Counter duplicated;
    /// Live population of this kind in the due-bucket queue.
    std::uint64_t in_flight{0};
  };
  KindCounters& counters_for(const char* kind);

  void enqueue(ProcessId src, ProcessId dst, MessagePtr msg, std::uint64_t seq,
               std::uint64_t sent_at, KindCounters& counters);

  [[nodiscard]] std::uint32_t group_of(ProcessId p) const;

  /// Removes every in-flight message matching `pred`, accounting each as a
  /// drop (counters + observer), in deterministic (due, send-order) order.
  /// Returns the number purged.
  std::size_t purge_in_flight(const std::function<bool(const InFlight&)>& pred);

  /// Fan an event out to every observer, in registration order.
  void emit_send(const Envelope& env);
  void emit_deliver(const Envelope& env);
  void emit_drop(const Envelope& env);
  void emit_duplicate(const Envelope& env);

  NetworkConfig config_;
  util::Rng rng_;
  util::Metrics metrics_;
  std::map<std::string, KindCounters, std::less<>> kind_counters_;
  util::Counter dropped_;
  util::Counter duplicated_;
  util::Gauge queue_depth_;
  util::Histogram* queue_depth_hist_{nullptr};
  std::uint64_t now_{0};
  std::map<ProcessId, Handler> handlers_;
  /// Processes crashed via detach() and not yet re-attached.  Distinct from
  /// "never attached": delivering to the latter is still a programming error
  /// (logic_error), while sends to the former are dropped at the source.
  std::set<ProcessId> dead_;
  /// Active partition mask (empty = fully connected).  Absent pid = group 0.
  std::map<ProcessId, std::uint32_t> partition_group_;
  /// Transport-event observers, in registration order.
  std::vector<Observer*> observers_;
  std::map<std::pair<ProcessId, ProcessId>, std::uint64_t> link_seq_;
  /// Latest due-step handed to a reliable message per link; later reliable
  /// sends are clamped to at least this value to guarantee per-link FIFO.
  std::map<std::pair<ProcessId, ProcessId>, std::uint64_t> reliable_due_;
  /// Due-step bucket queue: each step drains only the buckets that are due
  /// instead of scanning (and re-sorting) everything in flight.  Buckets
  /// hold messages in send order and are sorted by link at delivery time,
  /// reproducing the (due, src, dst, seq) order of the old full sort.
  std::map<std::uint64_t, std::vector<InFlight>> in_flight_;
  std::size_t in_flight_count_{0};
  /// per_step_sent_[step][kind id] -> count of sends.
  std::vector<std::vector<std::uint64_t>> per_step_sent_;
};

}  // namespace rgc::net
