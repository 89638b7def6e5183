// Message envelope for the simulated asynchronous network.
//
// The network is payload-agnostic: every protocol (coherence, acyclic DGC,
// cycle detection) subclasses Message.  kind() names the
// message for metrics (the paper's Figures 8/9 count CDMs; we count every
// kind), weight() approximates the serialized size in abstract units so
// network-overhead comparisons can be made by bytes as well as by count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/ids.h"

namespace rgc::net {

class Message {
 public:
  Message() = default;
  Message(const Message&) = default;
  Message& operator=(const Message&) = default;
  virtual ~Message() = default;

  /// Stable short name used as a metrics key, e.g. "CDM", "Propagate".
  [[nodiscard]] virtual const char* kind() const noexcept = 0;

  /// Abstract serialized size (element count), 1 by default.
  [[nodiscard]] virtual std::size_t weight() const noexcept { return 1; }

  /// Deep copy; required because the network can duplicate messages when
  /// fault injection is enabled.
  [[nodiscard]] virtual std::unique_ptr<Message> clone() const = 0;

  /// Reliable messages model a TCP-like transport: never dropped, never
  /// duplicated, FIFO per link.  The RM substrate's coherence and mutator
  /// traffic (Propagate, Invoke) and the acyclic protocol's irrevocable
  /// decisions (Unreachable, Reclaim) are reliable; the GC's asynchronous
  /// advisory traffic (NewSetStubs, CDMs) tolerates loss and reordering and
  /// is exposed to fault injection.
  [[nodiscard]] virtual bool reliable() const noexcept { return false; }
};

using MessagePtr = std::unique_ptr<Message>;

/// What a process's handler receives.
struct Envelope {
  ProcessId src{kNoProcess};
  ProcessId dst{kNoProcess};
  /// Per (src,dst) link sequence number, assigned at send time.  Protocols
  /// use it for causality guards (e.g. "delete this scion only if the
  /// NewSetStubs sender had already seen the propagate that created it").
  std::uint64_t seq{0};
  /// Simulation step at which the message was sent.
  std::uint64_t sent_at{0};
  const Message* msg{nullptr};
};

}  // namespace rgc::net
