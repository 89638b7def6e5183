// Acyclic replication-aware distributed GC (§2.2.3).
//
// Reference-listing extended with the Union Rule, three message kinds:
//
//  - NewSetStubs — after a local collection, the stub set is shipped to
//    every peer that may hold matching scions; scions without a matching
//    stub are deleted.  A causality horizon (the sender's delivered-seq of
//    Propagate messages *from* the peer) protects scions created by a
//    propagate the sender had not yet seen — without it, an in-flight
//    propagation would race the stub list and leave a dangling chain.
//
//  - Unreachable — a replica reachable only through its propagation lists
//    (not from roots or scions, and with every child replica already
//    reported unreachable) reports upstream to each parent it has not yet
//    told; the parent sets recUmess on the matching outProp entry.  The
//    link UC rides along so a report crossed by a re-propagation is
//    recognized as stale and ignored.
//
//  - Reclaim — when the root of a propagation tree is itself reachable
//    only from its outPropList and every child has reported unreachable,
//    the tree is dismantled: Reclaim flows to every child, which drops the
//    matching inProp entry, forwards Reclaim along its own outProps (whose
//    subtrees reported unreachable too, by induction) and lets the next
//    local collection sweep the replicas.
//
// Reclaim never deletes objects directly — it only unlinks propagation
// entries; the LGC is "ultimately the one that collects objects" (§2.2.3),
// which is what makes the protocol safe against stale reports: a replica
// that became reachable again in the meantime is still anchored by its
// root/scion and survives.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gc/lgc/lgc.h"
#include "net/message.h"
#include "rm/process.h"
#include "rm/tables.h"
#include "util/ids.h"

namespace rgc::gc {

struct NewSetStubsMsg final : net::Message {
  /// Anchors of the sender's live stubs that designate objects on the
  /// receiving process.
  std::vector<ObjectId> stub_anchors;
  /// Causality horizon: highest Propagate seq the sender had delivered
  /// from the receiver when the stub set was computed.
  std::uint64_t horizon{0};
  /// Sender's collection epoch.  NewSetStubs rides the unreliable plane,
  /// so jitter can deliver an *older* stub set after a newer one; the
  /// receiver ignores any message whose epoch does not advance (a stale
  /// set would otherwise delete a scion whose stub is alive again).
  std::uint64_t epoch{0};
  /// The *final* (empty) announcement to a peer is sent exactly once —
  /// the peer relation is forgotten right after — so unlike the periodic
  /// sets it must not be lost, or the peer's scions leak forever.
  bool final_set{false};

  [[nodiscard]] const char* kind() const noexcept override { return "NewSetStubs"; }
  [[nodiscard]] bool reliable() const noexcept override { return final_set; }
  [[nodiscard]] std::size_t weight() const noexcept override {
    return 1 + stub_anchors.size();
  }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<NewSetStubsMsg>(*this);
  }
};

struct UnreachableMsg final : net::Message {
  ObjectId object{kNoObject};
  /// UC of the inProp link the report is about; the parent ignores the
  /// report unless it matches the outProp's current UC.
  std::uint64_t uc{0};

  [[nodiscard]] const char* kind() const noexcept override { return "Unreachable"; }
  [[nodiscard]] bool reliable() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<UnreachableMsg>(*this);
  }
};

struct ReclaimMsg final : net::Message {
  ObjectId object{kNoObject};

  [[nodiscard]] const char* kind() const noexcept override { return "Reclaim"; }
  [[nodiscard]] bool reliable() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<net::Message> clone() const override {
    return std::make_unique<ReclaimMsg>(*this);
  }
};

class Adgc {
 public:
  /// Runs the acyclic protocol's send side right after a local collection:
  /// ships NewSetStubs to every stub peer and applies the Union-Rule
  /// reporting rules to every replicated object, based on the collection's
  /// reachability classification.
  static void after_collection(rm::Process& process, const LgcResult& result);

  // Receive side, wired by the Cluster dispatcher.
  static void on_new_set_stubs(rm::Process& process, const net::Envelope& env,
                               const NewSetStubsMsg& msg);
  static void on_unreachable(rm::Process& process, const net::Envelope& env,
                             const UnreachableMsg& msg);
  static void on_reclaim(rm::Process& process, const net::Envelope& env,
                         const ReclaimMsg& msg);

  /// Lease/timeout reclamation (Allen & Terriberry-style; docs/FAULTS.md):
  /// retires every scion, inProp and outProp entry whose peer has missed
  /// its lease — last heard more than `timeout` steps before `now` — so
  /// garbage anchored by a dead (or long-partitioned) process becomes
  /// collectable by the normal LGC/ADGC machinery.  Scions go through the
  /// same retirement path as a NewSetStubs deletion ("adgc.scions_deleted"
  /// plus "gc.lease_expirations").  Safety is unconditional: a restarting
  /// process re-registers (Cluster::restart renews leases in both
  /// directions) and re-binds via the reconciliation protocol before anyone
  /// acts on its behalf.  Returns the number of scions retired.
  static std::uint64_t expire_leases(rm::Process& process, std::uint64_t now,
                                     std::uint64_t timeout);
};

}  // namespace rgc::gc
