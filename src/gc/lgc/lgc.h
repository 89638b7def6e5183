// Local Garbage Collector (§2.2.2).
//
// A per-process tracing collector with the paper's two extensions:
//  1. it traces not only from local roots but also from scions (incoming
//     remote references keep objects alive), and
//  2. Union Rule: it additionally traces from the inPropList/outPropList
//     entries, so a replica that was propagated from or to another process
//     is preserved even when locally unreachable — only the distributed
//     protocols (ADGC Unreachable/Reclaim hand-shake or a cycle-detector
//     verdict) may unlock it.
//
// The collection returns per-object reachability classes (which of the four
// trace families reached it) — the ADGC bases its Unreachable/Reclaim
// decisions on exactly this classification — and regenerates the stub set
// ("for each outgoing inter-process reference it creates a stub in the new
// set of stubs").
//
// The collection is split into three steps so the cluster can overlap
// everything that is proportional to the live heap across processes
// (docs/PERFORMANCE.md):
//  - mark()  — the four trace families.  Logically read-only: reachability
//    lands in the intrusive epoch-validated masks on Object/Stub
//    (rm/object.h) and the process-owned scratch worklist (rm::MarkScratch),
//    so it allocates nothing at steady state and is safe to run for
//    different processes on different threads concurrently.
//  - scan()  — the sweep's read-only half: one id-ordered heap pass and
//    one stub-table pass that read the masks into the reachability
//    classification and list the unmarked objects and dead stubs.
//    Read-only too, so the cluster runs it beside mark().
//  - apply() — finalization, reclamation of the listed objects, dropping
//    the listed stubs, metrics, and recording.  Mutates the process and
//    touches shared sinks (recorder, ledger, Finalizer), so the cluster
//    runs it serially in pid order; its cost follows the garbage, not the
//    live heap.
// collect() == mark() + scan() + apply() and is what single-process callers
// use.  Two shortcuts serve a process the cluster collected before, judged
// by the epochs its kept result is tagged with (Cluster::collect_nodes):
//  - reuse() stands in for all three when nothing changed since the last
//    apply() (rm::Process::mutation_epoch);
//  - mark_remote() stands in for mark() + scan() when only scions and
//    propagation lists changed (rm::Process::root_epoch): the root family's
//    classes are kept, and only the remotely anchored closure is retraced
//    and rewritten.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gc/lgc/finalizer.h"
#include "rm/process.h"
#include "rm/tables.h"
#include "util/flat_map.h"
#include "util/ids.h"

namespace rgc::gc {

/// Bitmask of trace families that reached an entity.
enum ReachBit : std::uint8_t {
  kReachRoot = 1u << 0,    // local roots (incl. transient invocation roots)
  kReachScion = 1u << 1,   // incoming remote references
  kReachInProp = 1u << 2,  // Union Rule: replica propagated *into* here
  kReachOutProp = 1u << 3, // Union Rule: replica propagated *out of* here
};

struct LgcResult {
  /// Reachability class of every surviving object (key-ordered).
  util::FlatMap<ObjectId, std::uint8_t> object_reach;
  /// Reachability class of every reached stub: the new stub set after the
  /// collection (§2.2.2).  A stub unreachable by all four families is dead
  /// and was dropped from the process's stub table.
  util::FlatMap<rm::StubKey, std::uint8_t> stub_reach;
  /// Surviving objects that no root reached, only scions or propagation
  /// entries (id order): the subset of object_reach lacking kReachRoot.
  std::vector<ObjectId> unrooted;
  /// The remote closure: objects and stubs some family other than the
  /// roots reached (no particular order) — the entries mark_remote()
  /// rewrites when the next collection retraces only that side.  Listed
  /// only while it is small beside the heap (remote_kept), the one case
  /// where retracing it alone beats a fresh mark.
  std::vector<ObjectId> remote_objects;
  std::vector<rm::StubKey> remote_stubs;
  bool remote_kept{false};
  /// Objects swept by this collection.
  std::vector<ObjectId> reclaimed;
  /// Objects whose finalizer resurrected them (Figure 6/7 experiment).
  std::uint64_t resurrected{0};
  /// Objects this collection visited across all traces (cost proxy); 0
  /// for a collection that reused the previous mark, the remote families'
  /// visits only for one that retraced just those.
  std::uint64_t traced{0};
};

/// Token handed from mark() through scan() (or from mark_remote()) to
/// apply(): the mark epoch whose masks were read, the result built from
/// them, and the garbage apply() removes.
struct LgcMark {
  std::uint64_t epoch{0};
  std::uint64_t traced{0};
  /// The part of `traced` the remote families (scions, inProps, outProps)
  /// visited (set by mark(), read by scan()).
  std::uint64_t remote_traced{0};
  /// Everything but the sweep outcome, which apply() adds.
  LgcResult result;
  /// Every object no trace reached, in id order — the only objects apply()
  /// visits.
  std::vector<ObjectId> unmarked;
  /// Every stub no trace reached — what apply() drops.
  std::vector<rm::StubKey> dead_stubs;
};

struct LgcConfig {
  /// Finalization strategy applied to locally-unreachable finalizable
  /// objects; kNone collects them like any other garbage.
  Finalizer* finalizer{nullptr};
  /// When false, stubs unreachable by every family are kept (used by tests
  /// that want to inspect the would-be-dropped set).
  bool drop_dead_stubs{true};
  /// Union Rule enforcement (trace phases 3/4).  Turning it off makes the
  /// collector behave like a classical replication-blind DGC — the unsafe
  /// comparison of Figure 1, used by tests and the ablation bench to show
  /// live data being lost.
  bool union_rule{true};
};

class Lgc {
 public:
  /// Runs one stop-the-world local collection on `process`.
  static LgcResult collect(rm::Process& process, const LgcConfig& config = {});

  /// Trace half: runs the four trace families in a fresh mark epoch.
  /// Thread-safe across *different* processes (per-process state only; no
  /// logging, tracing, or metrics).
  static LgcMark mark(const rm::Process& process, const LgcConfig& config = {});

  /// Read-only sweep half: one id-ordered heap pass and one stub-table
  /// pass over the masks of `marked.epoch` that refill `marked.result`'s
  /// classes, unrooted list and (when small) remote closure,
  /// `marked.unmarked` and `marked.dead_stubs` (cleared first, so a caller
  /// can hand in buffers to reuse).  Thread-safe across different
  /// processes, like mark(), and run right after it on the same thread.
  static void scan(const rm::Process& process, LgcMark& marked);

  /// mark() + scan() for a process whose root side is unchanged since
  /// `kept` was applied — no object, reference, root, transient root or
  /// stub changed, only scions and propagation lists (root_epoch() still
  /// at the tag taken then) — and that holds nothing `kept` lacks (no
  /// resurrected object; dead stubs were dropped; `kept.remote_kept`).
  /// Traces families 2-4 in a fresh mark epoch, keeps `kept`'s root
  /// classes, and rewrites only the entries in the old or the new remote
  /// closure; the previous unrooted objects no longer reached are the
  /// garbage (id order), the previous remote-only stubs no longer reached
  /// the dead stubs.  Its cost follows those closures, not the heap; the
  /// result equals a fresh mark() + scan() exactly.  Thread-safe across
  /// different processes, like mark().
  static LgcMark mark_remote(const rm::Process& process, LgcResult kept,
                             const LgcConfig& config = {});

  /// Mutating half: finalizes or reclaims the objects listed as unmarked
  /// (in id order), drops the dead stubs, records metrics and the
  /// collection span.  Visits no live object.  Must run on the thread that
  /// owns the simulation (serial).
  static LgcResult apply(rm::Process& process, LgcMark marked,
                         const LgcConfig& config = {});

  /// A collection of a process unchanged since `kept` was applied: the
  /// classes, unrooted list and stub set stand, nothing is traced, swept
  /// or resurrected.  Clears `kept`'s sweep outcome and records the same
  /// metrics and sweep event a fresh apply() would, with 0 traced, plus
  /// "lgc.marks_reused".  Serial, like apply().
  static void reuse(rm::Process& process, LgcResult& kept);

  // ---- Tracing primitives (shared with snapshot summarization) ---------
  //
  // All three operate on the process's current mark epoch (established by
  // rm::Process::begin_mark_epoch) and its scratch worklist.

  /// Marks `id` with `bit` and enqueues it; a seed with no local replica
  /// marks its stubs instead (keeps the chain alive).
  static void seed(const rm::Process& process, ObjectId id, std::uint8_t bit);

  /// BFS from every enqueued-but-unprocessed object, OR-ing `bit` into the
  /// masks of every object and stub reached.  A reference to a non-local
  /// object marks the stubs designating it.  Bumps *traced once per visited
  /// object when non-null.
  static void drain(const rm::Process& process, std::uint8_t bit,
                    std::uint64_t* traced = nullptr);

  /// seed() every element, then drain().
  static void trace(const rm::Process& process, std::span<const ObjectId> seeds,
                    std::uint8_t bit, std::uint64_t* traced = nullptr);
};

}  // namespace rgc::gc
