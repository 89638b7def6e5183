#include "obs/audit.h"

#include <algorithm>
#include <iterator>

#include "core/cluster.h"
#include "gc/cycle/cdm.h"
#include "gc/lgc/lgc.h"
#include "rm/process.h"

namespace rgc::obs {

HealthAuditor::HealthAuditor(core::Cluster& cluster, AuditConfig config)
    : cluster_(cluster), config_(config) {
  runs_ = metrics_.counter("audit.runs");
  deep_runs_total_ = metrics_.counter("audit.deep_runs");
  findings_error_total_ = metrics_.counter("audit.findings_error_total");
  findings_warn_total_ = metrics_.counter("audit.findings_warn_total");
  last_errors_ = metrics_.gauge("audit.last_errors");
  last_warnings_ = metrics_.gauge("audit.last_warnings");
  floating_scions_ = metrics_.gauge("audit.floating_scions");
  floating_garbage_ = metrics_.gauge("audit.floating_garbage");
  floating_garbage_age_ = metrics_.gauge("gc.floating_garbage_age");
}

// ---- Transport observer: CDM lineage + cut whitelist ----------------------

void HealthAuditor::on_send(const net::Envelope& env) {
  if (const auto* m = dynamic_cast<const gc::CdmMsg*>(env.msg)) {
    ++cdm_outstanding_[m->cdm.detection_id];
  }
}

void HealthAuditor::on_duplicate(const net::Envelope& env) {
  if (const auto* m = dynamic_cast<const gc::CdmMsg*>(env.msg)) {
    ++cdm_outstanding_[m->cdm.detection_id];
  }
}

void HealthAuditor::on_deliver(const net::Envelope& env) {
  if (const auto* m = dynamic_cast<const gc::CdmMsg*>(env.msg)) {
    auto& balance = cdm_outstanding_[m->cdm.detection_id];
    if (--balance < 0 && !cdm_negative_) {
      cdm_negative_ = true;
      cdm_negative_detail_ = "detection " +
                             std::to_string(m->cdm.detection_id) +
                             " delivered more CDMs than were issued";
    }
    return;
  }
  if (const auto* cut = dynamic_cast<const gc::CutMsg*>(env.msg)) {
    // The cut is about to delete scions at env.dst; their stub twins stay
    // behind at the holders until the holders' next LGC retires them.
    for (const auto& sc : cut->scion_cuts) {
      cut_pending_.emplace(sc.first.src_process,
                           rm::StubKey{sc.first.anchor, env.dst});
    }
  }
}

void HealthAuditor::on_drop(const net::Envelope& env) {
  if (const auto* m = dynamic_cast<const gc::CdmMsg*>(env.msg)) {
    auto& balance = cdm_outstanding_[m->cdm.detection_id];
    if (--balance < 0 && !cdm_negative_) {
      cdm_negative_ = true;
      cdm_negative_detail_ = "detection " +
                             std::to_string(m->cdm.detection_id) +
                             " dropped more CDMs than were issued";
    }
  }
}

// ---- Crash/recovery awareness ----------------------------------------------

void HealthAuditor::note_crash(ProcessId pid, const util::Metrics& metrics) {
  dead_cdms_sent_ += metrics.get("cycle.cdms_sent");
  dead_cdms_received_ += metrics.get("cycle.cdms_received");
  for (auto it = cut_pending_.begin(); it != cut_pending_.end();) {
    const auto& [holder, key] = *it;
    it = holder == pid || key.target_process == pid ? cut_pending_.erase(it)
                                                    : std::next(it);
  }
}

// ---- Audit driver ----------------------------------------------------------

const HealthReport& HealthAuditor::run_scheduled() {
  ++scheduled_runs_;
  const bool deep =
      config_.deep_every != 0 && scheduled_runs_ % config_.deep_every == 0;
  return run(deep);
}

const HealthReport& HealthAuditor::run_deep() { return run(true); }

const HealthReport& HealthAuditor::run(bool deep) {
  HealthReport out;
  out.step = cluster_.now();
  out.deep = deep;

  update_heap_gauges();
  check_roots(out);
  check_stub_scion(out);
  check_prop_pairing(out);
  check_conservation(out);
  check_cdm_lineage(out);
  if (deep) deep_checks(out);

  runs_.inc();
  if (deep) deep_runs_total_.inc();
  out.audit_runs = runs_.value();
  out.deep_runs = deep_runs_total_.value();
  findings_error_total_.inc(out.errors());
  findings_warn_total_.inc(out.warnings());
  last_errors_.set(out.errors());
  last_warnings_.set(out.warnings());
  report_ = std::move(out);
  return report_;
}

void HealthAuditor::update_heap_gauges() {
  for (ProcessId pid : cluster_.process_ids()) {
    rm::Process& proc = cluster_.process(pid);
    const rm::Heap& heap = proc.heap();
    proc.metrics().gauge("process.heap_slab_bytes").set(heap.slab_bytes());
    proc.metrics().gauge("process.heap_live_fraction").set(heap.live_percent());
  }
}

// ---- Shallow checks --------------------------------------------------------

void HealthAuditor::check_roots(HealthReport& out) {
  for (ProcessId pid : cluster_.process_ids()) {
    const rm::Process& proc = cluster_.process(pid);
    for (ObjectId root : proc.heap().roots()) {
      if (proc.knows(root)) continue;
      out.findings.push_back(Finding{
          Severity::kError, "root_integrity", pid,
          "root " + rgc::to_string(root) + " resolves to nothing"});
    }
    for (const auto& [obj, ttl] : proc.transient_roots()) {
      if (proc.knows(obj)) continue;
      out.findings.push_back(Finding{
          Severity::kError, "root_integrity", pid,
          "transient root " + rgc::to_string(obj) + " resolves to nothing"});
    }
  }
}

void HealthAuditor::check_stub_scion(HealthReport& out) {
  // Retire whitelist entries that resolved: stub gone (holder's LGC caught
  // up) or scion restored (the cut was stale / the link was re-exported).
  // Entries naming a currently-dead pid wait untouched (note_crash purges
  // those created before the crash; a restart may re-create the state).
  for (auto it = cut_pending_.begin(); it != cut_pending_.end();) {
    const auto& [holder, key] = *it;
    if (!cluster_.is_alive(holder) || !cluster_.is_alive(key.target_process)) {
      ++it;
      continue;
    }
    const rm::Process& proc = cluster_.process(holder);
    const bool stub_gone = proc.find_stub(key) == nullptr;
    bool scion_back = false;
    if (!stub_gone) {
      const rm::Process& target = cluster_.process(key.target_process);
      scion_back =
          target.scions().contains(rm::ScionKey{holder, key.target});
    }
    it = stub_gone || scion_back ? cut_pending_.erase(it) : std::next(it);
  }

  const net::Network& net = cluster_.network();
  // Reconciliation traffic legitimately rebuilds (or severs) stub/scion
  // pairs; while any is in flight a mismatch is transient, not a violation.
  const bool reconciling = net.in_flight_of("Recover") != 0 ||
                           net.in_flight_of("Rebind") != 0 ||
                           net.in_flight_of("RebindNack") != 0 ||
                           net.in_flight_of("PropSync") != 0;
  const std::uint64_t lease_timeout = cluster_.config().lease_timeout;
  const std::uint64_t now = cluster_.now();

  std::uint64_t floating_scions = 0;
  for (ProcessId pid : cluster_.process_ids()) {
    const rm::Process& proc = cluster_.process(pid);

    // Every stub must have its scion twin ("clean before send propagate"
    // creates the scion causally before the stub can exist, so an in-flight
    // Propagate never explains a missing one).
    out.checked_stubs += proc.stubs().size();
    for (const auto& [key, stub] : proc.stubs()) {
      // A stub toward a crashed process is the surviving half of a
      // reference the reconciliation protocol settles at restart — the
      // remote state is unobservable until then.
      if (!cluster_.is_alive(key.target_process)) continue;
      const rm::Process& target = cluster_.process(key.target_process);
      auto sit = target.scions().find(rm::ScionKey{pid, key.target});
      if (sit == target.scions().end()) {
        const bool pending = cut_pending_.contains({pid, key});
        // Recovery windows where the missing twin is expected: the target
        // lease-expired us (rebind pending), a partition blocks the pair,
        // or reconciliation traffic is still in flight.
        const bool lease_retired =
            lease_timeout > 0 && now >= target.last_heard(pid) + lease_timeout;
        const bool unreachable = !net.reachable(pid, key.target_process);
        const char* why = pending ? " awaiting post-cut LGC retirement"
                          : lease_retired
                              ? " lease-retired, awaiting rebind"
                          : unreachable ? " unreachable (partitioned)"
                          : reconciling ? " reconciliation in flight"
                                        : " has no matching scion";
        const bool benign = pending || lease_retired || unreachable ||
                            reconciling;
        out.findings.push_back(Finding{
            benign ? Severity::kWarn : Severity::kError, "stub_scion", pid,
            "stub " + rgc::to_string(key.target) + "->" +
                rgc::to_string(key.target_process) + why});
        continue;
      }
      // The stub's IC leads the scion's while an Invoke travels; the scion
      // leading the stub happens when a retired stub was re-created (the
      // persisted scion keeps the old count) — anomalous but benign.
      if (sit->second.ic > stub.ic) {
        out.findings.push_back(Finding{
            Severity::kWarn, "ic_skew", pid,
            "scion IC " + std::to_string(sit->second.ic) + " leads stub IC " +
                std::to_string(stub.ic) + " for " +
                rgc::to_string(key.target) + "@" +
                rgc::to_string(key.target_process)});
      }
    }

    // Scions without stub twins are normal floating state (stub retired,
    // NewSetStubs round not yet landed): a gauge, not a finding.  A scion
    // owned by a crashed process counts as floating until the owner
    // restarts and rebinds (or its lease expires).
    out.checked_scions += proc.scions().size();
    for (const auto& [key, scion] : proc.scions()) {
      if (!proc.knows(key.anchor)) {
        out.findings.push_back(Finding{
            Severity::kError, "scion_anchor", pid,
            "scion from " + rgc::to_string(key.src_process) + " anchors " +
                rgc::to_string(key.anchor) + ", which resolves to nothing"});
      }
      if (!cluster_.is_alive(key.src_process)) {
        ++floating_scions;
        // Without leases a dead owner legitimately pins its scions until
        // restart (WARN).  With leases the expiry sweep runs every step,
        // so a scion past its dead owner's lease means it failed.
        if (lease_timeout == 0) {
          out.findings.push_back(Finding{
              Severity::kWarn, "scion_owner", pid,
              "scion for " + rgc::to_string(key.anchor) + " owned by dead " +
                  rgc::to_string(key.src_process) +
                  " (no lease configured; pinned until restart)"});
        } else if (now >= proc.last_heard(key.src_process) + lease_timeout) {
          out.findings.push_back(Finding{
              Severity::kError, "scion_owner", pid,
              "scion for " + rgc::to_string(key.anchor) +
                  " outlived the lease of dead owner " +
                  rgc::to_string(key.src_process)});
        }
        continue;
      }
      const rm::Process& holder = cluster_.process(key.src_process);
      if (holder.find_stub(rm::StubKey{key.anchor, pid}) == nullptr) {
        ++floating_scions;
      }
    }
  }
  floating_scions_.set(floating_scions);
}

namespace {

/// Every prop entry names a replica that exists on its own side.
void check_prop_replica(HealthReport& out, const rm::Process& proc,
                        ProcessId pid, const char* list, ObjectId object) {
  if (proc.has_replica(object)) return;
  out.findings.push_back(Finding{
      Severity::kError, "prop_replica", pid,
      std::string(list) + " names " + rgc::to_string(object) +
          " but no such replica exists here"});
}

/// A prop list is sorted by object and names each (object, process) pair
/// at most once (rm/tables.h); the ADGC digest and every prop lookup rely
/// on it.  Reports the first entry that breaks either rule.
template <typename Entry>
void check_prop_order(HealthReport& out, ProcessId pid, const char* list,
                      const std::vector<Entry>& entries) {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (e.object < entries[i - 1].object) {
      out.findings.push_back(Finding{
          Severity::kError, "prop_order", pid,
          std::string(list) + " list names " + rgc::to_string(e.object) +
              " after " + rgc::to_string(entries[i - 1].object) +
              ": out of object order"});
      return;
    }
    for (std::size_t j = i; j-- > 0 && entries[j].object == e.object;) {
      if (entries[j].process != e.process) continue;
      out.findings.push_back(Finding{
          Severity::kError, "prop_order", pid,
          std::string(list) + " list holds " + rgc::to_string(e.object) +
              " / " + rgc::to_string(e.process) + " twice"});
      return;
    }
  }
}

}  // namespace

void HealthAuditor::check_prop_pairing(HealthReport& out) {
  // Pairing mismatches are legal exactly while link-mutating traffic is in
  // flight: Propagate creates the outProp before the inProp exists, Reclaim
  // severs the outProp side first, Cut severs the inProp side first (the
  // PropCut completes it).  Once that plane is quiet, both lists must agree
  // edge for edge.
  const net::Network& net = cluster_.network();
  const bool quiet = net.in_flight_of("Propagate") == 0 &&
                     net.in_flight_of("Reclaim") == 0 &&
                     net.in_flight_of("Cut") == 0 &&
                     net.in_flight_of("PropCut") == 0 &&
                     net.in_flight_of("PropSync") == 0;
  const Severity sev = quiet ? Severity::kError : Severity::kWarn;

  for (ProcessId pid : cluster_.process_ids()) {
    const rm::Process& proc = cluster_.process(pid);
    out.checked_props += proc.in_props().size() + proc.out_props().size();
    check_prop_order(out, pid, "inProp", proc.in_props());
    check_prop_order(out, pid, "outProp", proc.out_props());
    for (const rm::InProp& e : proc.in_props()) {
      check_prop_replica(out, proc, pid, "inProp", e.object);
      // A dead or unreachable partner's half of the link is unobservable;
      // lease expiry or restart reconciliation settles it.
      if (!cluster_.is_alive(e.process) || !net.reachable(pid, e.process)) {
        continue;
      }
      const rm::Process& parent = cluster_.process(e.process);
      if (parent.find_out_prop(e.object, pid) == nullptr) {
        out.findings.push_back(Finding{
            sev, "prop_pairing", pid,
            "inProp " + rgc::to_string(e.object) + " from " +
                rgc::to_string(e.process) + " has no outProp twin" +
                (quiet ? "" : " (link traffic in flight)")});
      }
    }
    for (const rm::OutProp& e : proc.out_props()) {
      check_prop_replica(out, proc, pid, "outProp", e.object);
      if (!cluster_.is_alive(e.process) || !net.reachable(pid, e.process)) {
        continue;
      }
      const rm::Process& child = cluster_.process(e.process);
      if (child.find_in_prop(e.object, pid) == nullptr) {
        out.findings.push_back(Finding{
            sev, "prop_pairing", pid,
            "outProp " + rgc::to_string(e.object) + " to " +
                rgc::to_string(e.process) + " has no inProp twin" +
                (quiet ? "" : " (link traffic in flight)")});
      }
    }
  }
}

void HealthAuditor::check_conservation(HealthReport& out) {
  // Per-kind transport conservation: everything issued is accounted for.
  for (const net::Network::KindFlow& f : cluster_.network().kind_flows()) {
    const std::uint64_t issued = f.sent + f.duplicated;
    const std::uint64_t accounted = f.delivered + f.dropped + f.in_flight;
    if (issued != accounted) {
      out.findings.push_back(Finding{
          Severity::kError, "net_conservation", kNoProcess,
          f.kind + ": sent " + std::to_string(f.sent) + " + duplicated " +
              std::to_string(f.duplicated) + " != delivered " +
              std::to_string(f.delivered) + " + dropped " +
              std::to_string(f.dropped) + " + in-flight " +
              std::to_string(f.in_flight)});
    }
  }

  // Cross-layer identity: every CDM on the wire was issued by a detector
  // and every delivery reached one.
  std::uint64_t det_sent = dead_cdms_sent_;
  std::uint64_t det_received = dead_cdms_received_;
  for (ProcessId pid : cluster_.process_ids()) {
    const util::Metrics& m = cluster_.process(pid).metrics();
    det_sent += m.get("cycle.cdms_sent");
    det_received += m.get("cycle.cdms_received");
  }
  const util::Metrics& nm = cluster_.network().metrics();
  if (det_sent != nm.get("net.sent.CDM")) {
    out.findings.push_back(Finding{
        Severity::kError, "cdm_conservation", kNoProcess,
        "detectors issued " + std::to_string(det_sent) +
            " CDMs but the network sent " +
            std::to_string(nm.get("net.sent.CDM"))});
  }
  if (det_received != nm.get("net.delivered.CDM")) {
    out.findings.push_back(Finding{
        Severity::kError, "cdm_conservation", kNoProcess,
        "network delivered " + std::to_string(nm.get("net.delivered.CDM")) +
            " CDMs but detectors received " + std::to_string(det_received)});
  }
}

void HealthAuditor::check_cdm_lineage(HealthReport& out) {
  if (cdm_negative_) {
    out.findings.push_back(Finding{Severity::kError, "cdm_lineage",
                                   kNoProcess, cdm_negative_detail_});
  }
  // With no CDM in flight, every detection's issued/retired balance must
  // have returned to zero (issued == delivered + dropped).
  const bool quiet = cluster_.network().in_flight_of("CDM") == 0;
  for (auto it = cdm_outstanding_.begin(); it != cdm_outstanding_.end();) {
    if (it->second == 0) {
      it = cdm_outstanding_.erase(it);
      continue;
    }
    if (quiet && it->second > 0) {
      out.findings.push_back(Finding{
          Severity::kError, "cdm_lineage", kNoProcess,
          "detection " + std::to_string(it->first) + " has " +
              std::to_string(it->second) +
              " CDMs unaccounted for with none in flight"});
    }
    ++it;
  }
}

// ---- Deep checks -----------------------------------------------------------

void HealthAuditor::deep_checks(HealthReport& out) {
  const std::uint64_t now = cluster_.now();
  std::uint64_t floating = 0;
  std::uint64_t max_age = 0;

  for (ProcessId pid : cluster_.process_ids()) {
    rm::Process& proc = cluster_.process(pid);
    (void)gc::Lgc::mark(proc);  // read-only; classification lands in masks
    const rm::MarkScratch& scratch = proc.mark_scratch();

    // Recent reclaims on this process, for attributing dangling refs.
    const auto& ring = proc.reclaim_ring();
    const std::size_t ring_n = static_cast<std::size_t>(
        std::min<std::uint64_t>(proc.reclaims_noted(), ring.size()));

    // Reclaim safety: every reference held by a *live* (marked) object must
    // still resolve locally — a replica or a stub chain.  The worklist
    // doubles as the visited list, so this walks exactly the touched state.
    const rm::Heap& heap = proc.heap();
    for (std::uint32_t slot : scratch.queue) {
      const rm::Object& obj = heap.at_slot(slot);
      obj.unlinked_at = 0;  // reachable: clear any stale unlink stamp
      out.checked_refs += obj.refs.size();
      for (const rm::Ref& ref : obj.refs) {
        if (proc.knows(ref.target)) continue;
        std::string detail = "live " + rgc::to_string(obj.id) +
                             " holds a dangling reference to " +
                             rgc::to_string(ref.target);
        for (std::size_t i = 0; i < ring_n; ++i) {
          if (ring[i].object == ref.target) {
            detail += " (reclaimed locally at step " +
                      std::to_string(ring[i].at_step) + ")";
            break;
          }
        }
        out.findings.push_back(
            Finding{Severity::kError, "reclaim_safety", pid, detail});
      }
    }

    // Floating garbage: present but unreached by any trace family — the
    // next collection sweeps it.  Stamp first sighting and age the oldest.
    // Its references must resolve too (reference integrity): together with
    // the live pass above, every reference in the heap is checked.
    heap.for_each([&](ObjectId id, std::uint32_t slot, const rm::Object& obj) {
      if (heap.marks(slot, scratch.epoch) != 0) return;
      if (obj.unlinked_at == 0) obj.unlinked_at = now;
      ++floating;
      max_age = std::max(max_age, now - obj.unlinked_at);
      out.checked_refs += obj.refs.size();
      for (const rm::Ref& ref : obj.refs) {
        if (proc.knows(ref.target)) continue;
        out.findings.push_back(Finding{
            Severity::kError, "ref_integrity", pid,
            rgc::to_string(id) + " holds a reference to " +
                rgc::to_string(ref.target) + " that resolves to nothing"});
      }
    });
  }
  floating_garbage_.set(floating);
  floating_garbage_age_.set(max_age);
}

}  // namespace rgc::obs
