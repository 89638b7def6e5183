// Distributed-GC bookkeeping tables: stubs, scions, propagation lists.
//
// §2.2 of the paper:
//  - Stub  — an outgoing inter-process reference (this process -> target).
//  - Scion — an incoming inter-process reference (source -> this process).
//  - inPropList / outPropList — where each replicated object came from /
//    was propagated to, with the Unreachable/Reclaim hand-shake bits.
//
// §3.2 extends them with invocation counters (stubs/scions) and update
// counters (props) that implement the optimistic race barrier of §3.5, plus
// the summarization fields (StubsFrom/ScionsTo/ReplicasFrom/ReplicasTo,
// LocalReach) — those live in gc/cycle/summary.h, computed from snapshots,
// not here: the live tables carry only what the running system maintains.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <vector>

#include "util/ids.h"

namespace rgc::rm {

/// Identifies a stub within its holder process: which object it designates
/// and on which process the designated replica lives (SSP chains allow
/// several stubs for the same object through different processes).
struct StubKey {
  ObjectId target{kNoObject};
  ProcessId target_process{kNoProcess};

  friend constexpr auto operator<=>(const StubKey&, const StubKey&) = default;
};

struct Stub {
  StubKey key;
  /// Invocation Counter (IC): bumped on every remote invocation through
  /// this reference; compared against the scion's IC by the race barrier.
  std::uint64_t ic{0};
  /// Step at which the stub was created (diagnostics).
  std::uint64_t created_at{0};

  /// Intrusive LGC mark state, epoch-validated exactly like
  /// rm::Object::mark_epoch/mark_bits (see object.h).
  mutable std::uint64_t mark_epoch{0};
  mutable std::uint8_t mark_bits{0};

  /// Dense position of this stub in the current summarization pass (stamped
  /// by gc::summarize while walking the stub table in key order; only valid
  /// within that pass).  Same intrusive-scratch idea as the mark state.
  mutable std::uint32_t summarize_idx{0};

  bool mark(std::uint64_t epoch, std::uint8_t bit) const {
    if (mark_epoch != epoch) {
      mark_epoch = epoch;
      mark_bits = 0;
    }
    if (mark_bits & bit) return false;
    mark_bits |= bit;
    return true;
  }

  [[nodiscard]] std::uint8_t marks(std::uint64_t epoch) const {
    return mark_epoch == epoch ? mark_bits : 0;
  }
};

/// Identifies a scion within its holder process: the remote process that
/// holds the reference and the local object the reference designates.
/// (The anchor object may itself not be replicated locally; the scion then
/// keeps the local stub chain for it alive — stub–scion chains, §2.2.4.)
struct ScionKey {
  ProcessId src_process{kNoProcess};
  ObjectId anchor{kNoObject};

  friend constexpr auto operator<=>(const ScionKey&, const ScionKey&) = default;
};

struct Scion {
  ScionKey key;
  /// Invocation Counter, twin of the matching stub's IC.
  std::uint64_t ic{0};
  /// Link sequence number of the Propagate message whose export created
  /// this scion.  NewSetStubs carries the receiver's delivered-seq horizon;
  /// a scion newer than the horizon is never deleted (guards against the
  /// in-flight-propagation race, §2.2.4 causal ordering).
  std::uint64_t created_seq{0};
  /// Source objects exported at propagate time (diagnostic only; the cycle
  /// detector identifies incoming references by link, not by source object,
  /// which is strictly safer — see DESIGN.md §7).
  std::vector<ObjectId> src_objects;
};

/// One entry of the inPropList: this process holds a replica of `object`
/// propagated from `process` (the parent replica).
struct InProp {
  ObjectId object{kNoObject};
  ProcessId process{kNoProcess};
  /// Update Counter (UC): set to the sender's counter on every propagate /
  /// update along this link.
  std::uint64_t uc{0};
  /// sentUmess bit of §2.2: an Unreachable message has been sent upstream
  /// and not invalidated since.
  bool sent_umess{false};
  friend constexpr bool operator==(const InProp&, const InProp&) = default;
};

/// One entry of the outPropList: this process propagated its replica of
/// `object` to `process` (a child replica).
struct OutProp {
  ObjectId object{kNoObject};
  ProcessId process{kNoProcess};
  /// Update Counter, bumped before each propagate/update along this link.
  std::uint64_t uc{0};
  /// recUmess bit of §2.2: the child reported itself unreachable.
  bool rec_umess{false};
  friend constexpr bool operator==(const OutProp&, const OutProp&) = default;
};

// Both propagation lists of a process are kept sorted by object, the
// entries of one object in insertion order, with at most one entry per
// (object, process) pair.  An object's links are then one contiguous range:
// lookups are a binary search plus a short scan, and the ADGC digest visits
// every replicated object in one merge walk over the two lists.  Entries
// are only ever added through insert_prop and removed by order-preserving
// erasure; an image restore re-sorts with sort_props.

/// Orders prop entries (InProp or OutProp) by object alone.
struct PropObjectLess {
  template <typename Entry>
  bool operator()(const Entry& e, ObjectId object) const noexcept {
    return e.object < object;
  }
  template <typename Entry>
  bool operator()(ObjectId object, const Entry& e) const noexcept {
    return object < e.object;
  }
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const noexcept {
    return a.object < b.object;
  }
};

/// The entries of `object` in an object-sorted prop list, in insertion
/// order (iterators into `list`, so the range can be erased).
template <typename List>
[[nodiscard]] auto prop_range(List& list, ObjectId object) {
  const auto [first, last] =
      std::equal_range(list.begin(), list.end(), object, PropObjectLess{});
  return std::ranges::subrange(first, last);
}

/// Adds `entry` after every entry of its object; returns the stored entry.
template <typename Entry>
Entry& insert_prop(std::vector<Entry>& list, const Entry& entry) {
  const auto at = std::upper_bound(list.begin(), list.end(), entry.object,
                                   PropObjectLess{});
  return *list.insert(at, entry);
}

/// Drops the entries of `object` linked to `process`; returns how many.
template <typename Entry>
std::size_t erase_prop(std::vector<Entry>& list, ObjectId object,
                       ProcessId process) {
  const auto range = prop_range(list, object);
  const auto kept_end =
      std::remove_if(range.begin(), range.end(),
                     [process](const Entry& e) { return e.process == process; });
  const auto dropped = static_cast<std::size_t>(range.end() - kept_end);
  list.erase(kept_end, range.end());
  return dropped;
}

/// Restores the list order: by object, insertion order kept within one.
template <typename Entry>
void sort_props(std::vector<Entry>& list) {
  std::stable_sort(list.begin(), list.end(), PropObjectLess{});
}

}  // namespace rgc::rm
