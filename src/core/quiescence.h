// Decentralized termination detection — quiescence without a global scan.
//
// The harness used to decide "the cluster is idle" by peeking at the
// network's global in-flight count: a stop-the-world "is everyone idle"
// question no million-process deployment can ask.  Following Plyukhin &
// Agha's decentralized actor termination detection (PAPERS.md) adapted to
// this system's message substrate, quiescence is instead derived from
// *per-process accounts* of locally observable transport facts:
//
//   - a process knows how many messages it handed to the transport
//     (on_send), and learns synchronously when the transport refuses one —
//     a dead destination, a severed partition link, or a send-time loss is
//     a local NACK, so the account is refunded (on_drop);
//   - a transport-level retransmission (on_duplicate) is an extra copy
//     charged to the sending link, exactly like the original;
//   - a process knows how many messages were delivered to it (on_deliver).
//
// No account ever reads another process's state and no event is recorded
// anywhere but at its local endpoint, so the accounts shard perfectly.  A
// *probe* then circulates a weighted token through the accounts in pid
// order, accumulating the send/receive deficit and a per-account version
// signature (the token's "color"): a first wave computing a zero deficit
// is confirmed by a second wave that must see every version unchanged —
// any account touched between the waves dirties the token and the probe
// refuses to conclude, which is what makes the wave safe even when probes
// are issued while traffic is being injected.  Crashed processes are
// handled per the lease model (docs/FAULTS.md): kill() purges their
// traffic (each purge refunding the sender's account), their account is
// frozen at its final value, and the frozen balance keeps the books exact
// across the crash — a dead process is never "pending work".
//
// The conservation argument: every enqueue is exactly one +1 on its
// sender's account (send or duplicate), every dequeue exactly one -1
// (delivery on the receiver, refund on the sender for drops and purges) —
// so the summed deficit equals the transport's in-flight population at
// every step boundary, without ever asking the transport.  chaos_test and
// policy_test check that agreement across kills, restarts and partitions.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "util/ids.h"
#include "util/metrics.h"

namespace rgc::core {

class TerminationDetector final : public net::Network::Observer {
 public:
  /// One process's locally-maintained ledger.  `sent` counts messages the
  /// transport accepted from this process (retransmissions included,
  /// refused/aborted sends refunded); `received` counts deliveries to it.
  /// `weight_sent`/`weight_received` carry the same balance in serialized
  /// bytes — the "weighted" half of the token, used for traffic gauges.
  /// `version` bumps on every update: the token's dirtiness signature.
  struct Account {
    std::uint64_t sent{0};
    std::uint64_t received{0};
    std::uint64_t weight_sent{0};
    std::uint64_t weight_received{0};
    std::uint64_t version{0};
    /// Frozen by a crash: the balance stays in the books (purge refunds
    /// have already landed), but the pid is reported among the dead.
    bool dead{false};
  };

  /// `registry`: where the detector publishes its probe counters/gauges
  /// (the cluster hands its network registry so the report picks them up).
  explicit TerminationDetector(util::Metrics& registry);

  /// Creates (or revives, after restart()) the account for `pid`.
  void attach(ProcessId pid);
  /// Freezes `pid`'s account — crash semantics; the balance remains.
  void mark_dead(ProcessId pid);

  // net::Network::Observer — every hook touches exactly one account, the
  // endpoint that can observe the event locally.
  void on_send(const net::Envelope& env) override;
  void on_deliver(const net::Envelope& env) override;
  void on_drop(const net::Envelope& env) override;
  void on_duplicate(const net::Envelope& env) override;

  /// One full token circulation (two waves when the first computes a zero
  /// deficit).  Returns true when termination is confirmed: zero deficit
  /// and an unchanged version signature between the waves.  O(processes),
  /// touching only the accounts.
  bool probe();

  /// Verdict of the last probe().
  [[nodiscard]] bool quiescent() const noexcept { return last_verdict_; }
  /// Deficit (messages sent but not yet delivered or refunded) the last
  /// probe observed — the decentralized analogue of "messages in flight".
  [[nodiscard]] std::uint64_t deficit() const noexcept { return last_deficit_; }
  /// Same balance in serialized weight units.
  [[nodiscard]] std::uint64_t weight_deficit() const noexcept {
    return last_weight_deficit_;
  }
  /// Frozen (crashed, not restarted) accounts.
  [[nodiscard]] std::size_t dead() const noexcept { return dead_count_; }

  [[nodiscard]] const Account& account(ProcessId pid) const;

 private:
  Account& slot(ProcessId pid);

  /// Accounts indexed by raw pid (dense: the cluster allocates pids
  /// sequentially), so a token wave is one linear scan.
  std::vector<Account> accounts_;
  std::size_t dead_count_{0};
  bool last_verdict_{true};
  std::uint64_t last_deficit_{0};
  std::uint64_t last_weight_deficit_{0};
  util::Counter probes_;
  util::Counter waves_;
  util::Counter confirmations_;
  util::Gauge deficit_gauge_;
  util::Gauge weight_gauge_;
};

}  // namespace rgc::core
