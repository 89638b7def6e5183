#include "gc/baseline/baseline_detector.h"

#include <algorithm>

#include "obs/recorder.h"
#include "util/log.h"

namespace rgc::gc {

BaselineDetector::BaselineDetector(rm::Process& process) : process_(process) {}

void BaselineDetector::install_snapshot(ProcessSummary summary) {
  summary_ = std::move(summary);
  seen_entries_.clear();
  process_.metrics().add("baseline.snapshots");
}

bool BaselineDetector::subsumed(std::uint64_t detection, ObjectId entry,
                                const util::FlatSet<Element>& targets) {
  auto& prior = seen_entries_[{detection, entry}];
  for (const auto& t : prior) {
    if (targets.subset_of(t)) return true;
  }
  // The flattened view has a redundant path pair per propagation link, so
  // without a cap the baseline's parallel lineages multiply combinatorially
  // (distinct target sets never subsume each other).  Real message-based
  // detectors mark visited entries per trace (Maheshwari's trace-ids, §6);
  // allowing a few re-examinations keeps multi-path detections like
  // Figure 3's alive while bounding the flood.
  constexpr std::size_t kMaxExamsPerEntry = 3;
  if (prior.size() >= kMaxExamsPerEntry) return true;
  prior.push_back(targets);
  return false;
}

std::optional<std::uint64_t> BaselineDetector::start_detection(
    ObjectId candidate) {
  if (!summary_.has_value()) return std::nullopt;
  const ProcessId self = process_.id();
  const bool known = summary_->replicas.contains(candidate) ||
                     !summary_->scions_anchored_at(candidate).empty();
  if (!known) return std::nullopt;

  Cdm cdm;
  cdm.detection_id =
      (static_cast<std::uint64_t>(raw(self)) << 32) | ++next_serial_;
  cdm.candidate = Replica{candidate, self};
  cdm.started_step = process_.network().now();
  cdm.ref_deps.insert(Element::make(cdm.candidate));

  std::vector<Hop> out;
  if (examine(cdm, candidate, /*as_start=*/true, out) != Visit::kOk) {
    return std::nullopt;
  }
  process_.metrics().add("baseline.detections_started");
  if (obs::FlightRecorder* rec = process_.recorder()) {
    rec->detection(obs::RecKind::kDetectStart, self, cdm.detection_id,
                   candidate);
  }
  conclude(cdm, std::move(out));
  return cdm.detection_id;
}

void BaselineDetector::on_cdm(const net::Envelope& env, const CdmMsg& msg) {
  (void)env;
  process_.metrics().add("baseline.cdms_received");
  if (!summary_.has_value()) {
    process_.metrics().add("baseline.drops_no_snapshot");
    return;
  }
  if (subsumed(msg.cdm.detection_id, msg.entry, msg.cdm.targets)) {
    process_.metrics().add("baseline.drops_subsumed");
    return;
  }
  Cdm cdm = msg.cdm;
  ++cdm.hops;
  std::vector<Hop> out;
  const Visit v = examine(cdm, msg.entry, /*as_start=*/false, out);
  if (v != Visit::kOk) {
    if (v == Visit::kAbortRace) process_.metrics().add("baseline.aborts_race");
    if (v == Visit::kAbortLive) process_.metrics().add("baseline.aborts_live");
    return;
  }
  conclude(cdm, std::move(out));
}

BaselineDetector::Visit BaselineDetector::examine(Cdm& cdm, ObjectId obj,
                                                  bool as_start,
                                                  std::vector<Hop>& out) {
  const ProcessId self = process_.id();
  const ProcessSummary& s = *summary_;

  const auto scion_keys = s.scions_anchored_at(obj);
  const auto rep_it = s.replicas.find(obj);
  const bool replicated = rep_it != s.replicas.end();
  if (scion_keys.empty() && !replicated) return Visit::kUnknownEntity;

  if (!as_start) cdm.targets.insert(Element::make(Replica{obj, self}));

  util::FlatSet<ObjectId> local_cont;
  std::vector<rm::StubKey> stub_cont;

  for (const rm::ScionKey& key : scion_keys) {
    const ScionSummary& ss = s.scions.at(key);
    if (ss.local_reach) return Visit::kAbortLive;
    const RefLink link{key.src_process, obj, self};
    if (!as_start) {
      if (!cdm.observe({link, ss.ic})) return Visit::kAbortRace;
      cdm.ref_deps.insert(Element::make(link));
      for (const rm::ScionKey& up_key : ss.scions_to) {
        const ScionSummary& up = s.scions.at(up_key);
        const RefLink up_link{up_key.src_process, up_key.anchor, self};
        if (!cdm.observe({up_link, up.ic})) return Visit::kAbortRace;
        cdm.ref_deps.insert(Element::make(up_link));
      }
      for (ObjectId via : ss.replicas_to) {
        cdm.ref_deps.insert(Element::make(Replica{via, self}));
      }
    }
    local_cont.merge(ss.replicas_from);
    for (const rm::StubKey& sk : ss.stubs_from) stub_cont.push_back(sk);
  }

  if (replicated) {
    const ReplicaSummary& rs = rep_it->second;
    if (rs.local_reach) return Visit::kAbortLive;

    // Flattened view: each propagation link is a *pair* of remote
    // references, so the partner replica is simultaneously a dependency
    // (the synthetic incoming reference) and a flooding destination (the
    // synthetic outgoing one) — in both directions.
    for (const PropEntrySummary& e : rs.out_props) {
      const PropLink link{obj, self, e.process};
      if (!cdm.observe({link, e.uc})) return Visit::kAbortRace;
      cdm.ref_deps.insert(Element::make(Replica{obj, e.process}));
      out.push_back(Hop{obj, e.process});
    }
    for (const PropEntrySummary& e : rs.in_props) {
      const PropLink link{obj, e.process, self};
      if (!cdm.observe({link, e.uc})) return Visit::kAbortRace;
      cdm.ref_deps.insert(Element::make(Replica{obj, e.process}));
      out.push_back(Hop{obj, e.process});
    }

    if (!as_start) {
      for (const rm::ScionKey& key : rs.scions_to) {
        const ScionSummary& ss = s.scions.at(key);
        const RefLink link{key.src_process, key.anchor, self};
        if (!cdm.observe({link, ss.ic})) return Visit::kAbortRace;
        cdm.ref_deps.insert(Element::make(link));
      }
      for (ObjectId via : rs.replicas_to) {
        cdm.ref_deps.insert(Element::make(Replica{via, self}));
      }
    }

    local_cont.merge(rs.replicas_from);
    for (const rm::StubKey& sk : rs.stubs_from) stub_cont.push_back(sk);
  }

  for (ObjectId next : local_cont) {
    if (next == obj) continue;
    if (cdm.targets.contains(Element::make(Replica{next, self}))) continue;
    // Live continuation: the path ends here without condemning the track.
    bool live = false;
    if (auto it = s.replicas.find(next); it != s.replicas.end()) {
      live = it->second.local_reach;
    }
    if (!live) {
      for (const rm::ScionKey& key : s.scions_anchored_at(next)) {
        if (s.scions.at(key).local_reach) live = true;
      }
    }
    if (live) continue;
    const Visit v = examine(cdm, next, /*as_start=*/false, out);
    if (v != Visit::kOk && v != Visit::kUnknownEntity) return v;
  }

  std::sort(stub_cont.begin(), stub_cont.end());
  stub_cont.erase(std::unique(stub_cont.begin(), stub_cont.end()),
                  stub_cont.end());
  for (const rm::StubKey& key : stub_cont) {
    const RefLink link{self, key.target, key.target_process};
    const Element link_el = Element::make(link);
    if (cdm.targets.contains(link_el)) continue;
    const StubSummary& ts = s.stubs.at(key);
    if (ts.local_reach) continue;  // live target: dependency stays open
    if (!cdm.observe({link, ts.ic})) return Visit::kAbortRace;
    for (const rm::ScionKey& sk : ts.scions_to) {
      const ScionSummary& ss = s.scions.at(sk);
      const RefLink up{sk.src_process, sk.anchor, self};
      if (!cdm.observe({up, ss.ic})) return Visit::kAbortRace;
      cdm.ref_deps.insert(Element::make(up));
    }
    for (ObjectId via : ts.replicas_to) {
      cdm.ref_deps.insert(Element::make(Replica{via, self}));
    }
    cdm.targets.insert(link_el);
    out.push_back(Hop{key.target, key.target_process});
  }
  return Visit::kOk;
}

void BaselineDetector::conclude(Cdm& cdm, std::vector<Hop> out) {
  const ProcessId self = process_.id();
  if (cdm.flat_complete()) {
    process_.metrics().add("baseline.cycles_found");
    process_.metrics().histogram("baseline.cdm.hops").record(cdm.hops);
    RGC_INFO("baseline: ", to_string(self), " proved garbage cycle headed by ",
             to_string(cdm.candidate));
    if (on_cycle_found) on_cycle_found(cdm);
    return;
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  bool sent = false;
  for (const Hop& hop : out) {
    if (cdm.targets.contains(Element::make(Replica{hop.entry, hop.to}))) {
      continue;  // already visited there
    }
    auto msg = std::make_unique<CdmMsg>();
    msg->cdm = cdm;
    msg->entry = hop.entry;
    msg->via = EntryVia::kRef;
    process_.network().send(self, hop.to, std::move(msg));
    process_.metrics().add("baseline.cdms_sent");
    sent = true;
  }
  // Note: when every hop is exhausted the track simply dies.  On linear
  // replication chains (every ring mesh, every paper figure) some lineage
  // always closes the cycle; on *branching* replication trees the flood
  // burns through leaf replicas early, with no forwarding mechanism to
  // revisit them — the replication-blind traversal fails to converge
  // there, which the scalability benches report explicitly (ours keeps a
  // forward queue precisely for this).
  if (!sent) process_.metrics().add("baseline.tracks_ended");
}

}  // namespace rgc::gc
