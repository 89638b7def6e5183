#include "gc/cycle/detector.h"

#include <algorithm>
#include <stdexcept>

#include "obs/ledger.h"
#include "obs/recorder.h"
#include "util/log.h"

namespace rgc::gc {

CycleDetector::CycleDetector(rm::Process& process, DetectorConfig config,
                             Traversal traversal)
    : process_(process), config_(config), traversal_(traversal) {
  util::Metrics& m = process_.metrics();
  counters_.snapshots = m.counter("cycle.snapshots");
  counters_.snapshots_adopted = m.counter("cycle.snapshots_adopted");
  counters_.detections_started = m.counter("cycle.detections_started");
  counters_.cdms_received = m.counter("cycle.cdms_received");
  counters_.drops_no_snapshot = m.counter("cycle.drops_no_snapshot");
  counters_.drops_subsumed = m.counter("cycle.drops_subsumed");
  counters_.cdms_sent = m.counter("cycle.cdms_sent");
  counters_.forwards = m.counter("cycle.forwards");
  counters_.local_forks = m.counter("cycle.local_forks");
  counters_.cycles_found = m.counter("cycle.cycles_found");
  counters_.tracks_ended = m.counter("cycle.tracks_ended");
  counters_.aborts_live = m.counter("cycle.aborts_live");
  counters_.aborts_race = m.counter("cycle.aborts_race");
  counters_.drops_unknown_entity = m.counter("cycle.drops_unknown_entity");
  counters_.live_ancestor_skips = m.counter("cycle.live_ancestor_skips");
  counters_.live_continuation_skips = m.counter("cycle.live_continuation_skips");
  counters_.live_stub_skips = m.counter("cycle.live_stub_skips");
  counters_.cuts_stale = m.counter("cycle.cuts_stale");
  counters_.scions_cut = m.counter("cycle.scions_cut");
  counters_.props_cut = m.counter("cycle.props_cut");
  counters_.outprops_cut = m.counter("cycle.outprops_cut");
  hops_hist_ = &m.histogram("cdm.hops");
  steps_hist_ = &m.histogram("cycle.steps_to_detection");
}

void CycleDetector::install_snapshot(ProcessSummary summary) {
  summary_ = std::move(summary);
  seen_entries_.clear();
  counters_.snapshots.inc();
}

void CycleDetector::adopt_snapshot(ProcessSummary summary) {
  if (summary.process != process_.id()) {
    throw std::invalid_argument("adopt_snapshot: summary belongs to " +
                                to_string(summary.process) + ", not " +
                                to_string(process_.id()));
  }
  summary_ = std::move(summary);
  seen_entries_.clear();
  counters_.snapshots_adopted.inc();
}

bool CycleDetector::subsumed(std::uint64_t detection, ObjectId entry,
                             const util::FlatSet<Element>& targets) {
  auto& prior = seen_entries_[{detection, entry}];
  for (const auto& t : prior) {
    if (targets.subset_of(t)) return true;
  }
  // The flattened view has a redundant path pair per propagation link, so
  // without a cap the flood's parallel lineages multiply combinatorially
  // (distinct target sets never subsume each other).  Real message-based
  // detectors mark visited entries per trace (Maheshwari's trace-ids, §6);
  // allowing a few re-examinations keeps multi-path detections like
  // Figure 3's alive while bounding the flood.
  constexpr std::size_t kMaxFlatExamsPerEntry = 3;
  if (traversal_ == Traversal::kFlat && prior.size() >= kMaxFlatExamsPerEntry) {
    return true;
  }
  prior.push_back(targets);
  return false;
}

std::optional<std::uint64_t> CycleDetector::start_detection(ObjectId candidate) {
  const util::ScopedTimerUs profile{profile_us_};
  if (!summary_.has_value()) return std::nullopt;
  const ProcessId self = process_.id();

  // The candidate must be visible to the snapshot as a scion anchor or a
  // replicated object; anything else has no incoming remote dependency and
  // cannot head a *distributed* garbage cycle.
  const bool known = summary_->replicas.contains(candidate) ||
                     !summary_->scions_anchored_at(candidate).empty();
  if (!known) return std::nullopt;

  Cdm cdm;
  cdm.detection_id = (static_cast<std::uint64_t>(raw(self)) << 32) | ++next_serial_;
  cdm.candidate = Replica{candidate, self};
  cdm.started_step = process_.network().now();
  // The candidate seeds the reference-dependency set (the paper's Alg0:
  // {{}, {X_P1}} -> {}); it enters the target set only when the detection
  // returns to it, which is what closes the loop.
  cdm.ref_deps.insert(Element::make(cdm.candidate));

  std::vector<rm::StubKey> remote_out;
  const Visit v =
      traversal_ == Traversal::kFlat
          ? examine_flat(cdm, candidate, /*as_start=*/true, remote_out)
          : examine(cdm, candidate, /*as_start=*/true, remote_out);
  if (v != Visit::kOk) {
    record_abort(v);
    return std::nullopt;
  }
  counters_.detections_started.inc();
  // Lineage root: every later event of this detection chains back here.
  if (obs::FlightRecorder* rec = process_.recorder()) {
    rec->detection(obs::RecKind::kDetectStart, self, cdm.detection_id,
                   candidate);
  }
  const std::uint64_t detection_id = cdm.detection_id;
  conclude(cdm, remote_out);  // moves the payload into its last send
  return detection_id;
}

void CycleDetector::on_cdm(const net::Envelope& env, CdmMsg& msg) {
  const util::ScopedTimerUs profile{profile_us_};
  counters_.cdms_received.inc();
  if (!summary_.has_value()) {
    // Safety rule 1 (§3.5.2): our snapshot is not current enough to pair
    // with the sender's — ignore the CDM.
    counters_.drops_no_snapshot.inc();
    return;
  }
  (void)env;
  if (subsumed(msg.cdm.detection_id, msg.entry, msg.cdm.targets)) {
    counters_.drops_subsumed.inc();
    return;
  }
  RGC_DEBUG("cycle: ", to_string(process_.id()), " <- CDM entry ",
            to_string(msg.entry),
            msg.via == EntryVia::kProp ? " forwarded via prop " : " via ref ",
            msg.cdm.to_string());
  // The handler is the message's last reader: take the payload.
  Cdm cdm = std::move(msg.cdm);
  ++cdm.hops;
  std::vector<rm::StubKey> remote_out;
  const Visit v =
      traversal_ == Traversal::kFlat
          ? examine_flat(cdm, msg.entry, /*as_start=*/false, remote_out)
          : examine(cdm, msg.entry, /*as_start=*/false, remote_out);
  if (v != Visit::kOk) {
    record_abort(v);
    return;
  }
  conclude(cdm, remote_out);
}

bool CycleDetector::locally_live(ObjectId obj) const {
  const ProcessSummary& s = *summary_;
  if (auto it = s.replicas.find(obj); it != s.replicas.end()) {
    if (it->second.local_reach) return true;
  }
  for (const rm::ScionKey& key : s.scions_anchored_at(obj)) {
    if (s.scions.at(key).local_reach) return true;
  }
  return false;
}

void CycleDetector::require_ref(Cdm& cdm, const Element& from,
                                const Element& on) const {
  if (traversal_ == Traversal::kFlat) {
    cdm.ref_deps.insert(on);
  } else {
    cdm.require(from, on, /*prop=*/false);
  }
}

bool CycleDetector::require_context(Cdm& cdm, const Element& from,
                                    const util::FlatSet<rm::ScionKey>& scions_to,
                                    const util::FlatSet<ObjectId>& replicas_to,
                                    util::FlatSet<ObjectId>& ancestors) {
  const ProcessId self = process_.id();
  for (const rm::ScionKey& key : scions_to) {
    const RefLink link{key.src_process, key.anchor, self};
    if (!cdm.observe({link, summary_->scions.at(key).ic})) return false;
    require_ref(cdm, from, Element::make(link));
  }
  for (ObjectId via : replicas_to) {
    require_ref(cdm, from, Element::make(Replica{via, self}));
    ancestors.insert(via);
  }
  return true;
}

CycleDetector::Visit CycleDetector::examine(Cdm& cdm, ObjectId obj,
                                            bool as_start,
                                            std::vector<rm::StubKey>& remote_out) {
  const ProcessId self = process_.id();
  const ProcessSummary& s = *summary_;

  const auto scion_keys = s.scions_anchored_at(obj);
  const auto rep_it = s.replicas.find(obj);
  const bool replicated = rep_it != s.replicas.end();

  if (scion_keys.empty() && !replicated) {
    // Safety rule 1: the snapshot does not know the entity the CDM is
    // about (older than the reference/propagation that created it).
    return Visit::kUnknownEntity;
  }

  // Liveness gate before any CDM mutation, so callers may treat an abort
  // as "not examined" (nothing half-recorded).
  if (locally_live(obj)) return Visit::kAbortLive;

  const Element me = Element::make(Replica{obj, self});
  if (!as_start) cdm.targets.insert(me);

  util::FlatSet<ObjectId> local_cont;
  util::FlatSet<ObjectId> ancestor_cont;
  std::vector<rm::StubKey> stub_cont;

  for (const rm::ScionKey& key : scion_keys) {
    const ScionSummary& ss = s.scions.at(key);
    if (!as_start) {
      const RefLink link{key.src_process, obj, self};
      if (!cdm.observe({link, ss.ic})) return Visit::kAbortRace;
      cdm.require(me, Element::make(link), /*prop=*/false);
      // Anchor-level incoming context: local scions / replicated objects
      // that lead to this anchor must be proven dead too.
      if (!require_context(cdm, me, ss.scions_to, ss.replicas_to,
                           ancestor_cont)) {
        return Visit::kAbortRace;
      }
    }
    local_cont.merge(ss.replicas_from);
    for (const rm::StubKey& sk : ss.stubs_from) stub_cont.push_back(sk);
  }

  if (replicated) {
    const ReplicaSummary& rs = rep_it->second;

    // Union Rule in algebra form: every replica of obj is a dependency.
    // Children are queued for forwarding ahead of parents (§3.3 policy);
    // config_.children_first flips the order for the ablation study.
    std::vector<Replica> children;
    std::vector<Replica> parents;
    for (const PropEntrySummary& e : rs.out_props) {
      const PropLink link{obj, self, e.process};
      if (!cdm.observe({link, e.uc})) return Visit::kAbortRace;
      const Replica child{obj, e.process};
      cdm.require(me, Element::make(child), /*prop=*/true);
      children.push_back(child);
    }
    for (const PropEntrySummary& e : rs.in_props) {
      const PropLink link{obj, e.process, self};
      if (!cdm.observe({link, e.uc})) return Visit::kAbortRace;
      const Replica parent{obj, e.process};
      cdm.require(me, Element::make(parent), /*prop=*/true);
      parents.push_back(parent);
    }
    auto& first = config_.children_first ? children : parents;
    auto& second = config_.children_first ? parents : children;
    cdm.forward_first.insert(cdm.forward_first.end(), first.begin(), first.end());
    cdm.forward_last.insert(cdm.forward_last.end(), second.begin(), second.end());

    // Incoming local context: scions and replicated objects leading to
    // this replica must be proven dead too.
    if (!as_start && !require_context(cdm, me, rs.scions_to, rs.replicas_to,
                                      ancestor_cont)) {
      return Visit::kAbortRace;
    }

    local_cont.merge(rs.replicas_from);
    for (const rm::StubKey& sk : rs.stubs_from) stub_cont.push_back(sk);
  }

  // Remote continuations first: cross every outgoing stub of this entity —
  // the crossings (dependency context + target-set entries) are *shared*
  // state every branch forked below must carry, or a sibling branch could
  // never resolve the link dependency the remote scion will raise.
  std::sort(stub_cont.begin(), stub_cont.end());
  stub_cont.erase(std::unique(stub_cont.begin(), stub_cont.end()),
                  stub_cont.end());
  util::FlatSet<ObjectId> stub_ancestors;
  for (const rm::StubKey& key : stub_cont) {
    const Visit v = examine_stub(cdm, key, remote_out, stub_ancestors);
    if (v != Visit::kOk) return v;
  }

  // Local *ancestors*: replicated objects on this process that lead to an
  // examined entity are dependencies — and, being in the very snapshot at
  // hand, they can be examined right away instead of hoping a forward path
  // happens to reach them (without this, garbage whose incoming side is
  // not forward-reachable from any candidate would never resolve).  A live
  // ancestor is skipped — its dependency stays open, which is exactly
  // right: nothing referenced by a live object may be condemned.
  ancestor_cont.merge(stub_ancestors);
  for (ObjectId anc : ancestor_cont) {
    if (anc == obj) continue;
    if (cdm.targets.contains(Element::make(Replica{anc, self}))) continue;
    if (locally_live(anc)) {
      counters_.live_ancestor_skips.inc();
      continue;
    }
    const Visit v = examine(cdm, anc, /*as_start=*/false, remote_out);
    if (v == Visit::kAbortRace) return v;
  }

  // Local forward continuations (the paper's ReplicasFrom hops).  One
  // viable continuation merges into this CDM; several fork one CDM branch
  // each (§3.4's multiple detection paths).  Forking matters beyond
  // economy: a branch that wanders into a replica of a remotely-live
  // object accumulates unresolvable dependencies, and isolation keeps that
  // poison out of the sibling branch that actually closes the cycle.
  std::vector<ObjectId> viable;
  for (ObjectId next : local_cont) {
    // A candidate's seeding pass must not examine the candidate itself —
    // the loop closes only when the detection *returns* to it (§3.3).
    if (next == obj) continue;
    if (cdm.targets.contains(Element::make(Replica{next, self}))) continue;
    if (locally_live(next)) {
      // Garbage may legally reference live data; the live object simply is
      // not part of any garbage cycle — the traversal ends here, without
      // condemning the track ("when a locally reachable object is found,
      // the tracing along that reference path ends", §2.2.2).
      counters_.live_continuation_skips.inc();
      continue;
    }
    viable.push_back(next);
  }
  if (viable.size() == 1) {
    const Visit v = examine(cdm, viable.front(), /*as_start=*/false, remote_out);
    if (v != Visit::kOk && v != Visit::kUnknownEntity) return v;
  } else {
    for (ObjectId next : viable) {
      // Each branch carries the shared crossings but owns only its local
      // path; the trunk keeps the reference sends (one copy each).
      Cdm branch = cdm;
      std::vector<rm::StubKey> branch_out;
      counters_.local_forks.inc();
      const Visit v = examine(branch, next, /*as_start=*/false, branch_out);
      if (v == Visit::kAbortRace) {
        record_abort(v);
        continue;  // this branch dies; its siblings live on
      }
      if (v == Visit::kOk) conclude(branch, branch_out);
    }
  }
  return Visit::kOk;
}

CycleDetector::Visit CycleDetector::examine_flat(Cdm& cdm, ObjectId obj,
                                                 bool as_start,
                                                 std::vector<rm::StubKey>& hops) {
  const ProcessId self = process_.id();
  const ProcessSummary& s = *summary_;

  const auto scion_keys = s.scions_anchored_at(obj);
  const auto rep_it = s.replicas.find(obj);
  const bool replicated = rep_it != s.replicas.end();
  if (scion_keys.empty() && !replicated) return Visit::kUnknownEntity;
  if (locally_live(obj)) return Visit::kAbortLive;

  const Element me = Element::make(Replica{obj, self});
  if (!as_start) cdm.targets.insert(me);

  util::FlatSet<ObjectId> local_cont;
  // The comparator has no inline ancestor pass: collected, never examined.
  util::FlatSet<ObjectId> ancestors;
  std::vector<rm::StubKey> stub_cont;

  for (const rm::ScionKey& key : scion_keys) {
    const ScionSummary& ss = s.scions.at(key);
    if (!as_start) {
      const RefLink link{key.src_process, obj, self};
      if (!cdm.observe({link, ss.ic})) return Visit::kAbortRace;
      cdm.ref_deps.insert(Element::make(link));
      if (!require_context(cdm, me, ss.scions_to, ss.replicas_to, ancestors)) {
        return Visit::kAbortRace;
      }
    }
    local_cont.merge(ss.replicas_from);
    for (const rm::StubKey& sk : ss.stubs_from) stub_cont.push_back(sk);
  }

  if (replicated) {
    const ReplicaSummary& rs = rep_it->second;
    // Flattened view: each propagation link is a *pair* of remote
    // references, so the partner replica is simultaneously a dependency
    // (the synthetic incoming reference) and a flooding destination (the
    // synthetic outgoing one) — in both directions.
    for (const PropEntrySummary& e : rs.out_props) {
      const PropLink link{obj, self, e.process};
      if (!cdm.observe({link, e.uc})) return Visit::kAbortRace;
      cdm.ref_deps.insert(Element::make(Replica{obj, e.process}));
      hops.push_back(rm::StubKey{obj, e.process});
    }
    for (const PropEntrySummary& e : rs.in_props) {
      const PropLink link{obj, e.process, self};
      if (!cdm.observe({link, e.uc})) return Visit::kAbortRace;
      cdm.ref_deps.insert(Element::make(Replica{obj, e.process}));
      hops.push_back(rm::StubKey{obj, e.process});
    }
    if (!as_start && !require_context(cdm, me, rs.scions_to, rs.replicas_to,
                                      ancestors)) {
      return Visit::kAbortRace;
    }
    local_cont.merge(rs.replicas_from);
    for (const rm::StubKey& sk : rs.stubs_from) stub_cont.push_back(sk);
  }

  for (ObjectId next : local_cont) {
    if (next == obj) continue;
    if (cdm.targets.contains(Element::make(Replica{next, self}))) continue;
    if (locally_live(next)) {
      counters_.live_continuation_skips.inc();
      continue;
    }
    const Visit v = examine_flat(cdm, next, /*as_start=*/false, hops);
    if (v != Visit::kOk && v != Visit::kUnknownEntity) return v;
  }

  std::sort(stub_cont.begin(), stub_cont.end());
  stub_cont.erase(std::unique(stub_cont.begin(), stub_cont.end()),
                  stub_cont.end());
  for (const rm::StubKey& key : stub_cont) {
    const Visit v = examine_stub(cdm, key, hops, ancestors);
    if (v != Visit::kOk) return v;
  }
  return Visit::kOk;
}

CycleDetector::Visit CycleDetector::examine_stub(
    Cdm& cdm, const rm::StubKey& key, std::vector<rm::StubKey>& remote_out,
    util::FlatSet<ObjectId>& ancestors_out) {
  const ProcessId self = process_.id();
  const ProcessSummary& s = *summary_;
  const RefLink link{self, key.target, key.target_process};
  const Element link_el = Element::make(link);
  if (cdm.targets.contains(link_el)) return Visit::kOk;  // already crossed

  const StubSummary& ts = s.stubs.at(key);
  if (ts.local_reach) {
    // The remote target is reachable from our local roots through this
    // very reference: it is live.  The link dependency must stay
    // unresolved (skipping is required for safety, not an optimization —
    // the target side cannot see our roots).
    counters_.live_stub_skips.inc();
    return Visit::kOk;
  }
  if (!cdm.observe({link, ts.ic})) return Visit::kAbortRace;

  // Crossing the link resolves the dependency the remote scion raises —
  // but only after the local context of the stub is accounted for.
  if (!require_context(cdm, link_el, ts.scions_to, ts.replicas_to,
                       ancestors_out)) {
    return Visit::kAbortRace;
  }
  cdm.targets.insert(link_el);

  // Loop prevention: do not re-enter a replica the detection has already
  // visited ("since B'_P2 is already in the target set ... this cycle
  // detection track is stopped").
  if (!cdm.targets.contains(
          Element::make(Replica{key.target, key.target_process}))) {
    remote_out.push_back(key);
  }
  return Visit::kOk;
}

void CycleDetector::conclude(Cdm& cdm, const std::vector<rm::StubKey>& remote_out) {
  const ProcessId self = process_.id();
  const bool flat = traversal_ == Traversal::kFlat;

  if (flat ? cdm.flat_complete() : cdm.cycle_complete()) {
    counters_.cycles_found.inc();
    const std::uint64_t now = process_.network().now();
    const std::uint64_t steps =
        now >= cdm.started_step ? now - cdm.started_step : 0;
    steps_hist_->record(steps);
    hops_hist_->record(cdm.hops);
    RGC_INFO("cycle: ", to_string(self), " proved garbage cycle headed by ",
             to_string(cdm.candidate), " :: ", cdm.to_string());
    if (on_cycle_found) on_cycle_found(cdm);
    return;
  }

  if (flat ? flood(cdm, remote_out) : forward(cdm, remote_out)) return;

  // Every continuation is exhausted: the track dies.  On linear replication
  // chains (every ring mesh, every paper figure) some lineage always closes
  // the cycle; on *branching* replication trees the flat flood burns
  // through leaf replicas early, with no forwarding mechanism to revisit
  // them, and fails to converge — the '*' rows of Fig. 9's sweep 2
  // (bench/fig9_cdm_totals); forward()'s queues exist precisely for this.
  counters_.tracks_ended.inc();
  hops_hist_->record(cdm.hops);
  RGC_DEBUG("cycle: ", to_string(self), " track ended for ",
            to_string(cdm.candidate), ", unresolved ",
            util::detail::concat([&] {
              std::string s;
              for (const Element& e :
                   flat ? cdm.flat_unresolved() : cdm.unresolved()) {
                s += to_string(e) + " ";
              }
              return s;
            }()));
}

bool CycleDetector::forward(Cdm& cdm, const std::vector<rm::StubKey>& remote_out) {
  const ProcessId self = process_.id();

  // Stash this examination's reference continuations; whether they are sent
  // now or later depends on the traversal policy below.
  for (const rm::StubKey& key : remote_out) {
    const Replica target{key.target, key.target_process};
    if (std::find(cdm.pending_refs.begin(), cdm.pending_refs.end(), target) ==
        cdm.pending_refs.end()) {
      cdm.pending_refs.push_back(target);
    }
  }

  auto next_forward = [&](const std::vector<Replica>& queue) -> const Replica* {
    for (const Replica& dest : queue) {
      if (dest.process == self) continue;  // local replicas were examined
      if (cdm.targets.contains(Element::make(dest))) continue;
      return &dest;
    }
    return nullptr;
  };
  auto forward_to = [&](const Replica* dest) {
    if (dest == nullptr) return false;
    const Replica to = *dest;  // dest points into the payload being moved
    send(std::move(cdm), to, EntryVia::kProp);
    counters_.forwards.inc();
    return true;
  };
  auto send_refs = [&]() -> bool {
    // Fork one CDM per unresolved reference target (§3.4's multiple
    // detection paths).
    std::vector<Replica> sends;
    for (const Replica& target : cdm.pending_refs) {
      if (cdm.targets.contains(Element::make(target))) continue;
      if (std::find(sends.begin(), sends.end(), target) == sends.end()) {
        sends.push_back(target);
      }
    }
    if (sends.empty()) return false;
    cdm.pending_refs.clear();
    send_all(cdm, sends, EntryVia::kRef);
    return true;
  };

  if (config_.defer_props) {
    // Per-link traversal (Table 2's absolute accounting): references
    // first, propagation forwards only once no reference remains.
    return send_refs() || forward_to(next_forward(cdm.forward_first)) ||
           forward_to(next_forward(cdm.forward_last));
  }
  // §3.3 priority 1 — child replicas: forward (no recomputation) to the
  // first unresolved one; reference sends wait in pending_refs.  Priority
  // 2 — references.  Priority 3 — parents: "only when a child replica
  // believes it belongs to a distributed cycle of garbage, it forwards its
  // CDM to its parent".
  return forward_to(next_forward(cdm.forward_first)) || send_refs() ||
         forward_to(next_forward(cdm.forward_last));
}

bool CycleDetector::flood(Cdm& cdm, std::vector<rm::StubKey> hops) {
  std::sort(hops.begin(), hops.end());
  hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
  std::vector<Replica> dests;
  for (const rm::StubKey& hop : hops) {
    const Replica dest{hop.target, hop.target_process};
    if (cdm.targets.contains(Element::make(dest))) continue;  // visited there
    dests.push_back(dest);
  }
  if (dests.empty()) return false;
  send_all(cdm, dests, EntryVia::kRef);
  return true;
}

void CycleDetector::send_all(Cdm& cdm, const std::vector<Replica>& dests,
                             EntryVia via) {
  for (std::size_t i = 0; i + 1 < dests.size(); ++i) send(cdm, dests[i], via);
  send(std::move(cdm), dests.back(), via);
}

void CycleDetector::send(Cdm cdm, const Replica& dest, EntryVia via) {
  auto msg = std::make_unique<CdmMsg>();
  msg->cdm = std::move(cdm);
  msg->entry = dest.object;
  msg->via = via;
  process_.network().send(process_.id(), dest.process, std::move(msg));
  counters_.cdms_sent.inc();
}

std::vector<std::pair<Replica, CutMsg>> CycleDetector::make_cuts(
    const Cdm& cdm) {
  // Members in replica order; the candidate's slot is moved to the front
  // at the end.
  std::vector<Replica> members;
  for (const Element& e : cdm.required_closure()) members.push_back(e.replica);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  std::vector<std::pair<Replica, CutMsg>> cuts(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    cuts[i].first = members[i];
    cuts[i].second.candidate = members[i].object;
    cuts[i].second.detection_id = cdm.detection_id;
  }
  const auto cut_of = [&](const Replica& r) -> CutMsg* {
    const auto it = std::lower_bound(members.begin(), members.end(), r);
    if (it == members.end() || *it != r) return nullptr;
    return &cuts[static_cast<std::size_t>(it - members.begin())].second;
  };
  const auto add = [](auto& list, const auto& entry) {
    if (std::find(list.begin(), list.end(), entry) == list.end()) {
      list.push_back(entry);
    }
  };
  for (const Observation& obs : cdm.observations()) {
    // The same link is legitimately observed at both of its ends (with, by
    // construction of a completed detection, equal counters) — dedupe.
    if (const auto* ref = std::get_if<RefLink>(&obs.link)) {
      if (CutMsg* cut = cut_of(Replica{ref->target, ref->target_process})) {
        add(cut->scion_cuts, std::pair<rm::ScionKey, std::uint64_t>{
                                 rm::ScionKey{ref->holder, ref->target},
                                 obs.counter});
      }
    } else if (const auto* prop = std::get_if<PropLink>(&obs.link)) {
      if (CutMsg* cut = cut_of(Replica{prop->object, prop->child})) {
        add(cut->prop_cuts,
            std::pair<ProcessId, std::uint64_t>{prop->parent, obs.counter});
      }
    }
  }
  std::stable_partition(cuts.begin(), cuts.end(), [&](const auto& c) {
    return c.first == cdm.candidate;
  });
  std::erase_if(cuts, [&](const auto& c) {
    return c.first != cdm.candidate && c.second.scion_cuts.empty() &&
           c.second.prop_cuts.empty();
  });
  return cuts;
}

CutMsg CycleDetector::make_cut(const Cdm& cdm) {
  return std::move(make_cuts(cdm).front().second);
}

void CycleDetector::on_cut(const net::Envelope& env, const CutMsg& msg) {
  (void)env;
  std::uint64_t scions_cut = 0;
  std::uint64_t props_cut = 0;
  std::uint64_t stale = 0;
  auto& scions = process_.scions();
  for (const auto& [key, expected_ic] : msg.scion_cuts) {
    auto it = scions.find(key);
    if (it == scions.end()) continue;  // another verdict got here first
    if (it->second.ic != expected_ic) {
      // An invocation landed after the detection's snapshots: the proof no
      // longer covers reality — skip, never misapply (safety over progress).
      counters_.cuts_stale.inc();
      ++stale;
      continue;
    }
    scions.erase(it);
    process_.note_remote_mutation();
    counters_.scions_cut.inc();
    ++scions_cut;
  }
  for (const auto& [parent, expected_uc] : msg.prop_cuts) {
    rm::InProp* e = process_.find_in_prop(msg.candidate, parent);
    if (e == nullptr) continue;
    if (e->uc != expected_uc) {
      counters_.cuts_stale.inc();
      ++stale;
      continue;
    }
    auto& ins = process_.in_props();
    ins.erase(std::remove_if(ins.begin(), ins.end(),
                             [&](const rm::InProp& x) {
                               return x.object == msg.candidate &&
                                      x.process == parent;
                             }),
              ins.end());
    auto cut = std::make_unique<PropCutMsg>();
    cut->object = msg.candidate;
    cut->expected_uc = expected_uc;
    cut->detection_id = msg.detection_id;
    process_.network().send(process_.id(), parent, std::move(cut));
    process_.note_remote_mutation();
    counters_.props_cut.inc();
    ++props_cut;
  }
  if (obs::Ledger* ledger = process_.ledger(); ledger != nullptr) {
    ledger->cut_applied(msg.detection_id, scions_cut, props_cut, stale);
  }
}

void CycleDetector::on_prop_cut(const net::Envelope& env, const PropCutMsg& msg) {
  rm::OutProp* e = process_.find_out_prop(msg.object, env.src);
  if (e == nullptr || e->uc != msg.expected_uc) return;
  auto& outs = process_.out_props();
  outs.erase(std::remove_if(outs.begin(), outs.end(),
                            [&](const rm::OutProp& x) {
                              return x.object == msg.object &&
                                     x.process == env.src;
                            }),
             outs.end());
  process_.note_remote_mutation();
  counters_.outprops_cut.inc();
}

void CycleDetector::record_abort(Visit v) {
  switch (v) {
    case Visit::kAbortLive:
      counters_.aborts_live.inc();
      break;
    case Visit::kAbortRace:
      counters_.aborts_race.inc();
      break;
    case Visit::kUnknownEntity:
      counters_.drops_unknown_entity.inc();
      break;
    case Visit::kOk:
      break;
  }
}

}  // namespace rgc::gc
