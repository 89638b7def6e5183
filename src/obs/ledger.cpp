#include "obs/ledger.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ostream>

#include "gc/cycle/cdm.h"

namespace rgc::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[320];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof buf - 1));
}

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

}  // namespace

std::string LedgerEntry::dominant() const {
  std::uint64_t best = 0;
  std::string label = "none";
  const auto consider = [&](std::uint64_t v, std::string l) {
    if (v > best) {
      best = v;
      label = std::move(l);
    }
  };
  for (const LedgerHop& hop : path) {
    const std::string link =
        rgc::to_string(hop.src) + "->" + rgc::to_string(hop.dst);
    consider(hop.wait_steps, "wait " + link);
    consider(hop.transit_steps, "transit " + link);
    consider(hop.digest_steps, "digest " + rgc::to_string(hop.src));
  }
  consider(cut_wait_steps + cut_transit_steps, "cut-wait");
  consider(sweep_wait_steps, "sweep " + rgc::to_string(candidate_process));
  return label;
}

std::string LedgerEntry::to_json() const {
  std::string out;
  appendf(out,
          "{\"detection_id\": %llu, \"candidate\": %llu, "
          "\"candidate_process\": %u, \"verdict_process\": %u, "
          "\"unlinked\": %llu, \"started\": %llu, \"detected\": %llu, "
          "\"cut_sent\": %llu, \"cut_delivered\": %llu, \"reclaimed\": %llu, "
          "\"complete\": %s",
          ull(detection_id), ull(raw(candidate)), raw(candidate_process),
          raw(verdict_process), ull(unlinked_step), ull(started_step),
          ull(detected_step), ull(cut_sent_step), ull(cut_delivered_step),
          ull(reclaimed_step), complete ? "true" : "false");
  appendf(out,
          ", \"e2e\": %llu, \"detect\": %llu, \"digest\": %llu, "
          "\"wait\": %llu, \"transit\": %llu, \"cut_wait\": %llu, "
          "\"cut_transit\": %llu, \"sweep_wait\": %llu",
          ull(e2e_steps), ull(detect_steps), ull(digest_steps),
          ull(wait_steps), ull(transit_steps), ull(cut_wait_steps),
          ull(cut_transit_steps), ull(sweep_wait_steps));
  appendf(out,
          ", \"hops\": %llu, \"cdm_msgs\": %llu, \"cdm_weight\": %llu, "
          "\"cdm_dropped\": %llu, \"cut_msgs\": %llu, \"cut_weight\": %llu, "
          "\"adgc_msgs\": %llu, \"adgc_weight\": %llu, "
          "\"coherence_msgs\": %llu, \"coherence_weight\": %llu",
          ull(hops), ull(cdm_msgs), ull(cdm_weight), ull(cdm_dropped),
          ull(cut_msgs), ull(cut_weight), ull(adgc_msgs), ull(adgc_weight),
          ull(coherence_msgs), ull(coherence_weight));
  appendf(out,
          ", \"scions_cut\": %llu, \"props_cut\": %llu, \"cuts_stale\": %llu, "
          "\"members\": %llu, \"members_reclaimed\": %llu, "
          "\"dominant\": \"%s\", \"path\": [",
          ull(scions_cut), ull(props_cut), ull(cuts_stale), ull(members),
          ull(members_reclaimed), dominant().c_str());
  for (std::size_t i = 0; i < path.size(); ++i) {
    const LedgerHop& hop = path[i];
    appendf(out,
            "%s{\"src\": %u, \"dst\": %u, \"sent\": %llu, \"delivered\": "
            "%llu, \"digest\": %llu, \"wait\": %llu, \"transit\": %llu, "
            "\"weight\": %llu}",
            i == 0 ? "" : ", ", raw(hop.src), raw(hop.dst),
            ull(hop.sent_step), ull(hop.deliver_step), ull(hop.digest_steps),
            ull(hop.wait_steps), ull(hop.transit_steps), ull(hop.weight));
  }
  out += "]}";
  return out;
}

Ledger::Ledger(std::size_t capacity, std::uint64_t transit_floor)
    : capacity_(capacity == 0 ? 1 : capacity), transit_floor_(transit_floor) {
  live_.resize(kLedgerMaxLive);
  for (LiveRec& rec : live_) rec.hops.reserve(kLedgerMaxHops);
  done_.reserve(capacity_);
  tracked_ = metrics_.counter("ledger.detections_tracked");
  proven_ = metrics_.counter("ledger.cycles_proven");
  reclaimed_ = metrics_.counter("ledger.cycles_reclaimed");
  evictions_ = metrics_.counter("ledger.evictions");
  overwritten_ = metrics_.counter("ledger.entries_overwritten");
  hop_overflows_ = metrics_.counter("ledger.hop_overflows");
  duplicate_verdicts_ = metrics_.counter("ledger.duplicate_verdicts");
  cdm_msgs_ = metrics_.counter("ledger.cdm_msgs");
  cdm_weight_ = metrics_.counter("ledger.cdm_weight");
  cdm_dropped_ = metrics_.counter("ledger.cdm_dropped");
  cdm_duplicated_ = metrics_.counter("ledger.cdm_duplicated");
  cut_msgs_ = metrics_.counter("ledger.cut_msgs");
  cut_weight_ = metrics_.counter("ledger.cut_weight");
  adgc_msgs_ = metrics_.counter("ledger.adgc_msgs");
  adgc_weight_ = metrics_.counter("ledger.adgc_weight");
  coherence_msgs_ = metrics_.counter("ledger.coherence_msgs");
  coherence_weight_ = metrics_.counter("ledger.coherence_weight");
  live_gauge_ = metrics_.gauge("ledger.live");
  completed_gauge_ = metrics_.gauge("ledger.completed");
  metrics_.gauge("ledger.capacity").set(capacity_);
  // Touch the decomposition histograms so the family set is fixed from the
  // start — report/Prometheus output then has identical shape whether or
  // not a run proved any cycle yet.
  for (const char* name :
       {"ledger.e2e_steps", "ledger.detect_steps", "ledger.wait_steps",
        "ledger.transit_steps", "ledger.digest_steps", "ledger.cut_steps",
        "ledger.sweep_wait_steps", "ledger.critical_hops"}) {
    static_cast<void>(metrics_.histogram(name));
  }
}

int Ledger::slot_of(std::uint64_t id) const {
  const auto it = live_index_.find(id);
  return it == live_index_.end() ? -1 : static_cast<int>(it->second);
}

int Ledger::track(std::uint64_t id, ObjectId candidate,
                  std::uint64_t started_step) {
  if (const int slot = slot_of(id); slot >= 0) return slot;
  int slot = -1;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (!live_[i].used) {
      slot = static_cast<int>(i);
      break;
    }
  }
  if (slot < 0) {
    // Evict the oldest unproven track (a proven one still owes a completed
    // entry); fall back to the oldest overall when everything is proven.
    int victim = -1;
    for (int pass = 0; pass < 2 && victim < 0; ++pass) {
      std::uint64_t oldest = ~std::uint64_t{0};
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (pass == 0 && live_[i].proven) continue;
        if (live_[i].entry.started_step <= oldest) {
          oldest = live_[i].entry.started_step;
          victim = static_cast<int>(i);
        }
      }
    }
    evictions_.inc();
    release(victim);
    slot = victim;
  }
  LiveRec& rec = live_[static_cast<std::size_t>(slot)];
  rec.used = true;
  rec.entry.detection_id = id;
  rec.entry.candidate = candidate;
  rec.entry.candidate_process = gc::detection_initiator(id);
  rec.entry.started_step = started_step;
  live_index_[id] = static_cast<std::uint32_t>(slot);
  tracked_.inc();
  live_gauge_.set(live());
  return slot;
}

void Ledger::release(int slot) {
  if (slot < 0) return;
  LiveRec& rec = live_[static_cast<std::size_t>(slot)];
  live_index_.erase(rec.entry.detection_id);
  for (auto it = awaiting_.begin(); it != awaiting_.end();) {
    it = it->second == static_cast<std::uint32_t>(slot) ? awaiting_.erase(it)
                                                        : std::next(it);
  }
  std::vector<HopRec> hops = std::move(rec.hops);
  hops.clear();  // keeps the reserved capacity
  rec = LiveRec{};
  rec.hops = std::move(hops);
  live_gauge_.set(live());
}

// ---- The event stream -----------------------------------------------------

void Ledger::consume(const RecEvent& e) {
  switch (static_cast<RecKind>(e.kind)) {
    case RecKind::kSend:
      on_send(e);
      return;
    case RecKind::kDeliver:
      on_deliver(e);
      return;
    case RecKind::kDrop:
      if (static_cast<RecMsg>(e.msg) == RecMsg::kCdm) {
        cdm_dropped_.inc();
        if (const int slot = slot_of(e.b); slot >= 0) {
          ++live_[static_cast<std::size_t>(slot)].entry.cdm_dropped;
        }
      }
      return;
    case RecKind::kDuplicate:
      if (static_cast<RecMsg>(e.msg) == RecMsg::kCdm) cdm_duplicated_.inc();
      return;
    case RecKind::kVerdict:
      cycle_proven(e);
      return;
    case RecKind::kVerdictMember:
      if (e.b == members_for_) await_member(slot_of(e.b), ObjectId{e.a});
      return;
    case RecKind::kCutApplied:
      if (const int slot = slot_of(e.b); slot >= 0) {
        LedgerEntry& entry = live_[static_cast<std::size_t>(slot)].entry;
        entry.scions_cut += e.a;
        entry.props_cut += e.c;
        entry.cuts_stale += e.d;
      }
      return;
    case RecKind::kFreed:
      object_reclaimed(ProcessId{e.pid}, ObjectId{e.a}, e.step);
      return;
    default:
      return;
  }
}

// Transport events: pid is the ring's process (the sender of a send, drop
// or duplicate, the receiver of a delivery) and peer the other end.

void Ledger::cdm_send(const RecEvent& e) {
  const int slot = track(e.b, ObjectId{e.c}, e.d);
  LiveRec& rec = live_[static_cast<std::size_t>(slot)];
  ++rec.entry.cdm_msgs;
  rec.entry.cdm_weight += e.weight;
  cdm_msgs_.inc();
  cdm_weight_.inc(e.weight);
  if (rec.hops.size() >= kLedgerMaxHops) {
    if (!rec.hop_overflow) {
      rec.hop_overflow = true;
      hop_overflows_.inc();
    }
    return;
  }
  HopRec hop;
  hop.src = ProcessId{e.pid};
  hop.dst = ProcessId{e.peer};
  hop.seq = e.a;
  hop.sent_step = e.step;
  hop.weight = e.weight;
  if (const auto it = rec.last_delivered.find(hop.src);
      it != rec.last_delivered.end()) {
    hop.parent = it->second;
  }
  rec.hops.push_back(hop);
}

void Ledger::on_send(const RecEvent& e) {
  switch (static_cast<RecMsg>(e.msg)) {
    case RecMsg::kCdm:
      cdm_send(e);
      return;
    case RecMsg::kCut:
    case RecMsg::kPropCut: {
      cut_msgs_.inc();
      cut_weight_.inc(e.weight);
      const bool cut = static_cast<RecMsg>(e.msg) == RecMsg::kCut;
      const int slot = slot_of(cut ? e.b : e.d);
      if (slot < 0) return;
      LiveRec& rec = live_[static_cast<std::size_t>(slot)];
      ++rec.entry.cut_msgs;
      rec.entry.cut_weight += e.weight;
      if (cut && !rec.cut_seen) {  // the first Cut, matched on delivery
        rec.cut_seen = true;
        rec.cut_seq = e.a;
        rec.cut_src = ProcessId{e.pid};
        rec.entry.cut_sent_step = e.step;
      }
      return;
    }
    case RecMsg::kPropagate:
    case RecMsg::kInvoke:
      attribute_member(ObjectId{e.c}, /*adgc=*/false, e.weight);
      return;
    case RecMsg::kUnreachable:
    case RecMsg::kReclaim:
      attribute_member(ObjectId{e.c}, /*adgc=*/true, e.weight);
      return;
    case RecMsg::kOther:
      return;
  }
}

void Ledger::attribute_member(ObjectId object, bool adgc,
                              std::uint64_t weight) {
  const auto it = awaiting_.find(object);
  if (it == awaiting_.end()) return;
  LiveRec& rec = live_[it->second];
  if (adgc) {
    ++rec.entry.adgc_msgs;
    rec.entry.adgc_weight += weight;
    adgc_msgs_.inc();
    adgc_weight_.inc(weight);
  } else {
    ++rec.entry.coherence_msgs;
    rec.entry.coherence_weight += weight;
    coherence_msgs_.inc();
    coherence_weight_.inc(weight);
  }
}

void Ledger::on_deliver(const RecEvent& e) {
  const auto msg = static_cast<RecMsg>(e.msg);
  if (msg != RecMsg::kCdm && msg != RecMsg::kCut) return;
  const int slot = slot_of(e.b);
  if (slot < 0) return;
  LiveRec& rec = live_[static_cast<std::size_t>(slot)];
  const ProcessId src{e.peer};
  const ProcessId dst{e.pid};
  if (msg == RecMsg::kCut) {
    if (rec.cut_seen && rec.entry.cut_delivered_step == 0 &&
        rec.cut_src == src && rec.cut_seq == e.a) {
      rec.entry.cut_delivered_step = e.step;
    }
    return;
  }
  // Newest-first scan: the matching send is almost always recent, and a
  // duplicated message must latch onto the same hop as its original.
  for (std::size_t i = rec.hops.size(); i-- > 0;) {
    HopRec& hop = rec.hops[i];
    if (hop.src != src || hop.dst != dst || hop.seq != e.a) continue;
    if (hop.deliver_step == 0) {
      hop.deliver_step = e.step;
      ++rec.entry.hops;
    }
    rec.last_delivered[dst] = static_cast<std::uint32_t>(i);
    return;
  }
}

// ---- Lifecycle events -----------------------------------------------------

void Ledger::cycle_proven(const RecEvent& v) {
  const int slot = track(v.b, ObjectId{v.a}, v.c);
  LiveRec& rec = live_[static_cast<std::size_t>(slot)];
  members_for_ = 0;
  // A second verdict of this detection, or one whose candidate an earlier
  // entry already awaits (that entry's sweep completes the cycle, so this
  // one would stay live forever): a duplicate.
  if (rec.proven || awaiting_.contains(ObjectId{v.a})) {
    duplicate_verdicts_.inc();
    if (!rec.proven) release(slot);
    return;
  }
  rec.proven = true;
  proven_.inc();
  LedgerEntry& e = rec.entry;
  const ProcessId at{v.pid};
  e.verdict_process = at;
  e.unlinked_step = v.d;
  if (const auto it = rec.last_delivered.find(at);
      it != rec.last_delivered.end()) {
    rec.verdict_hop = it->second;
  }
  // The verdict concludes inside the closing delivery's handler, so the
  // detected step IS that hop's delivery step; pinning it there (instead of
  // the verdict's own step) keeps the telescoping identity exact even if a
  // duplicated delivery re-examined the track later.
  e.detected_step = rec.verdict_hop != kNoHop
                        ? rec.hops[rec.verdict_hop].deliver_step
                        : v.step;
  e.detect_steps = e.detected_step - e.started_step;

  // Causal critical path: the verdict hop's ancestry, start-most first.
  std::vector<std::uint32_t> chain;
  for (std::uint32_t h = rec.verdict_hop; h != kNoHop;
       h = rec.hops[h].parent) {
    chain.push_back(h);
  }
  std::reverse(chain.begin(), chain.end());
  e.path.reserve(chain.size());
  for (const std::uint32_t idx : chain) {
    const HopRec& h = rec.hops[idx];
    LedgerHop out;
    out.src = h.src;
    out.dst = h.dst;
    out.sent_step = h.sent_step;
    out.deliver_step = h.deliver_step;
    const std::uint64_t prev = h.parent != kNoHop
                                   ? rec.hops[h.parent].deliver_step
                                   : e.started_step;
    out.digest_steps = h.sent_step >= prev ? h.sent_step - prev : 0;
    const std::uint64_t latency =
        h.deliver_step >= h.sent_step ? h.deliver_step - h.sent_step : 0;
    out.transit_steps = std::min(transit_floor_, latency);
    out.wait_steps = latency - out.transit_steps;
    out.weight = h.weight;
    e.digest_steps += out.digest_steps;
    e.wait_steps += out.wait_steps;
    e.transit_steps += out.transit_steps;
    e.path.push_back(out);
  }

  // Track the cycle's members — the candidate here, the rest from the
  // kVerdictMember events that follow — for reclaim completion and for
  // attributing ADGC/coherence traffic that names them during the
  // cut→sweep window.
  await_member(slot, e.candidate);
  members_for_ = v.b;
}

void Ledger::await_member(int slot, ObjectId object) {
  if (slot < 0) return;
  LedgerEntry& e = live_[static_cast<std::size_t>(slot)].entry;
  if (e.members >= kLedgerMaxMembers) return;
  if (awaiting_.emplace(object, static_cast<std::uint32_t>(slot)).second) {
    ++e.members;
  }
}

void Ledger::object_reclaimed(ProcessId pid, ObjectId object,
                              std::uint64_t step) {
  const auto it = awaiting_.find(object);
  if (it == awaiting_.end()) return;
  const std::uint32_t slot = it->second;
  LiveRec& rec = live_[slot];
  const bool is_candidate = object == rec.entry.candidate;
  if (is_candidate && pid != rec.entry.candidate_process) {
    // A replica of the candidate elsewhere: the entry completes only when
    // the candidate's own process sweeps it — keep waiting.
    return;
  }
  ++rec.entry.members_reclaimed;
  awaiting_.erase(it);
  if (is_candidate) {
    rec.entry.reclaimed_step = step;
    finalize(static_cast<int>(slot), step);
  }
}

void Ledger::finalize(int slot, std::uint64_t step) {
  LiveRec& rec = live_[static_cast<std::size_t>(slot)];
  LedgerEntry& e = rec.entry;
  const std::uint64_t floor = transit_floor_;
  if (e.cut_delivered_step > e.detected_step) {
    const std::uint64_t cut_latency = e.cut_delivered_step - e.detected_step;
    e.cut_transit_steps = std::min(floor, cut_latency);
    e.cut_wait_steps = cut_latency - e.cut_transit_steps;
    e.sweep_wait_steps =
        step >= e.cut_delivered_step ? step - e.cut_delivered_step : 0;
  } else {
    // No (matched) cut — e.g. auto_cut off and a lease expiry freed the
    // candidate.  The whole post-verdict stretch is sweep wait.
    e.sweep_wait_steps = step >= e.detected_step ? step - e.detected_step : 0;
  }
  e.e2e_steps = step >= e.started_step ? step - e.started_step : 0;
  e.complete = true;

  reclaimed_.inc();
  metrics_.histogram("ledger.e2e_steps").record(e.e2e_steps);
  metrics_.histogram("ledger.detect_steps").record(e.detect_steps);
  metrics_.histogram("ledger.wait_steps").record(e.wait_steps);
  metrics_.histogram("ledger.transit_steps").record(e.transit_steps);
  metrics_.histogram("ledger.digest_steps").record(e.digest_steps);
  metrics_.histogram("ledger.cut_steps")
      .record(e.cut_wait_steps + e.cut_transit_steps);
  metrics_.histogram("ledger.sweep_wait_steps").record(e.sweep_wait_steps);
  metrics_.histogram("ledger.critical_hops").record(e.path.size());

  if (done_.size() < capacity_) {
    done_.push_back(std::move(e));
  } else {
    overwritten_.inc();
    done_[done_next_] = std::move(e);
    done_next_ = (done_next_ + 1) % capacity_;
  }
  completed_gauge_.set(reclaimed_.value());
  release(slot);
}

// ---- Queries --------------------------------------------------------------

std::vector<const LedgerEntry*> Ledger::entries() const {
  std::vector<const LedgerEntry*> out;
  out.reserve(done_.size());
  // Ring order: done_next_ is the oldest once the ring has wrapped.
  const std::size_t n = done_.size();
  const std::size_t start = n < capacity_ ? 0 : done_next_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(&done_[(start + i) % n]);
  }
  return out;
}

std::vector<const LedgerEntry*> Ledger::slowest(std::size_t k) const {
  std::vector<const LedgerEntry*> out = entries();
  // Stable on ties: older entry first, so the ranking is deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const LedgerEntry* a, const LedgerEntry* b) {
                     return a->e2e_steps > b->e2e_steps;
                   });
  if (out.size() > k) out.resize(k);
  return out;
}

const LedgerEntry* Ledger::find(std::uint64_t detection_id) const {
  for (const LedgerEntry& e : done_) {
    if (e.detection_id == detection_id) return &e;
  }
  for (const LiveRec& rec : live_) {
    if (rec.used && rec.entry.detection_id == detection_id) return &rec.entry;
  }
  return nullptr;
}

std::string Ledger::explain(std::uint64_t detection_id) const {
  const LedgerEntry* e = nullptr;
  if (detection_id == 0) {
    const auto top = slowest(1);
    if (!top.empty()) e = top[0];
  } else {
    e = find(detection_id);
  }
  if (e == nullptr) {
    return detection_id == 0
               ? "ledger: no completed cycle to explain\n"
               : "ledger: unknown detection id " +
                     std::to_string(detection_id) + "\n";
  }
  std::string out;
  appendf(out, "cycle %llu: candidate %s@%s, verdict at %s\n",
          ull(e->detection_id), rgc::to_string(e->candidate).c_str(),
          rgc::to_string(e->candidate_process).c_str(),
          rgc::to_string(e->verdict_process).c_str());
  if (e->unlinked_step != 0 && e->unlinked_step <= e->started_step) {
    appendf(out,
            "  unlinked @ step %llu (floated %llu steps before detection)\n",
            ull(e->unlinked_step), ull(e->started_step - e->unlinked_step));
  }
  appendf(out,
          "  e2e %llu steps = detect %llu + cut %llu + sweep %llu "
          "(started %llu, detected %llu, reclaimed %llu)\n",
          ull(e->e2e_steps), ull(e->detect_steps),
          ull(e->cut_wait_steps + e->cut_transit_steps),
          ull(e->sweep_wait_steps), ull(e->started_step), ull(e->detected_step),
          ull(e->reclaimed_step));
  appendf(out,
          "  critical path: %zu hops, digest %llu / wait %llu / transit "
          "%llu\n",
          e->path.size(), ull(e->digest_steps), ull(e->wait_steps),
          ull(e->transit_steps));
  appendf(out, "    start @ %s step %llu\n",
          rgc::to_string(e->candidate_process).c_str(), ull(e->started_step));
  for (const LedgerHop& hop : e->path) {
    appendf(out,
            "    digest %-4llu | %s -> %s sent %llu, wait %llu, transit "
            "%llu | delivered %llu (weight %llu)\n",
            ull(hop.digest_steps), rgc::to_string(hop.src).c_str(),
            rgc::to_string(hop.dst).c_str(), ull(hop.sent_step),
            ull(hop.wait_steps), ull(hop.transit_steps),
            ull(hop.deliver_step), ull(hop.weight));
  }
  appendf(out, "    verdict @ %s step %llu\n",
          rgc::to_string(e->verdict_process).c_str(), ull(e->detected_step));
  if (e->cut_delivered_step != 0) {
    appendf(out,
            "  cut: sent %llu, delivered %llu (wait %llu, transit %llu); "
            "%llu scions / %llu props cut, %llu stale\n",
            ull(e->cut_sent_step), ull(e->cut_delivered_step),
            ull(e->cut_wait_steps), ull(e->cut_transit_steps),
            ull(e->scions_cut), ull(e->props_cut), ull(e->cuts_stale));
  }
  appendf(out,
          "  sweep: candidate reclaimed @ %llu (wait %llu); members %llu/%llu "
          "reclaimed\n",
          ull(e->reclaimed_step), ull(e->sweep_wait_steps),
          ull(e->members_reclaimed), ull(e->members));
  appendf(out,
          "  traffic (weight units): cdm %llu/%llu (%llu dropped), cut "
          "%llu/%llu, adgc %llu/%llu, coherence %llu/%llu\n",
          ull(e->cdm_msgs), ull(e->cdm_weight), ull(e->cdm_dropped),
          ull(e->cut_msgs), ull(e->cut_weight), ull(e->adgc_msgs),
          ull(e->adgc_weight), ull(e->coherence_msgs),
          ull(e->coherence_weight));
  appendf(out, "  dominant: %s\n", e->dominant().c_str());
  return out;
}

void Ledger::write_jsonl(std::ostream& os) const {
  for (const LedgerEntry* e : entries()) {
    os << e->to_json() << '\n';
  }
}

}  // namespace rgc::obs
