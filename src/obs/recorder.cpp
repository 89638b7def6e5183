#include "obs/recorder.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

#include "gc/adgc/adgc.h"
#include "gc/cycle/cdm.h"
#include "obs/ledger.h"
#include "rm/messages.h"
#include "util/bytes.h"
#include "util/log.h"

namespace rgc::obs {

namespace {

// `.rgcrec` framing: util/bytes.h fields, a magic+version header, and a
// trailing FNV-1a checksum over everything before it.
constexpr std::uint32_t kRecMagic = 0x52474352;  // "RCGR"
// v2: + kDetectStart, kVerdict.  v3: + RecEvent c/d/weight/msg,
// kVerdictMember, kCutApplied, kFreed and RecStamp::min_delay.
constexpr std::uint32_t kRecVersion = 3;
constexpr std::size_t kEventBytes = 64;

using util::put_u16;
using util::put_u32;
using util::put_u64;
using util::put_u8;

RecEvent read_event(util::ByteReader& r) {
  RecEvent e;
  e.seq = r.u64();
  e.step = r.u64();
  e.a = r.u64();
  e.b = r.u64();
  e.c = r.u64();
  e.d = r.u64();
  e.pid = r.u32();
  e.peer = r.u32();
  e.weight = r.u32();
  e.detail = r.u16();
  e.kind = r.u8();
  e.msg = r.u8();
  return e;
}

RecEvent make_event(RecKind kind, std::uint32_t pid, std::uint32_t peer,
                    std::uint64_t a, std::uint64_t b, std::uint64_t step) {
  return {.step = step, .a = a, .b = b, .pid = pid, .peer = peer,
          .kind = static_cast<std::uint8_t>(kind)};
}

RecMsg msg_of(std::string_view kind) {
  if (kind == "CDM") return RecMsg::kCdm;
  if (kind == "Cut") return RecMsg::kCut;
  if (kind == "PropCut") return RecMsg::kPropCut;
  if (kind == "Propagate") return RecMsg::kPropagate;
  if (kind == "Invoke") return RecMsg::kInvoke;
  if (kind == "Unreachable") return RecMsg::kUnreachable;
  if (kind == "Reclaim") return RecMsg::kReclaim;
  return RecMsg::kOther;
}

}  // namespace

const char* to_string(RecKind kind) {
  switch (kind) {
    case RecKind::kSend: return "send";
    case RecKind::kDeliver: return "deliver";
    case RecKind::kDrop: return "drop";
    case RecKind::kDuplicate: return "duplicate";
    case RecKind::kPhase: return "phase";
    case RecKind::kSweep: return "sweep";
    case RecKind::kReclaim: return "reclaim";
    case RecKind::kLeaseExpiry: return "lease_expiry";
    case RecKind::kKill: return "kill";
    case RecKind::kRestart: return "restart";
    case RecKind::kPersist: return "persist";
    case RecKind::kPartition: return "partition";
    case RecKind::kHeal: return "heal";
    case RecKind::kAuditError: return "audit_error";
    case RecKind::kDetectStart: return "detect_start";
    case RecKind::kVerdict: return "verdict";
    case RecKind::kVerdictMember: return "verdict_member";
    case RecKind::kCutApplied: return "cut_applied";
    case RecKind::kFreed: return "freed";
  }
  return "?";
}

FlightRecorder::FlightRecorder(RecorderConfig config,
                               const net::Network* net, Ledger* ledger)
    : capacity_(config.capacity), net_(net), ledger_(ledger) {}

util::Metrics FlightRecorder::metrics() const {
  util::Metrics m;
  m.gauge("recorder.depth").set(retained_);
  m.gauge("recorder.appended_total").set(appended_);
  m.gauge("recorder.dropped_total").set(dropped_);
  m.gauge("recorder.capacity").set(capacity_);
  return m;
}

std::uint64_t FlightRecorder::clock(std::uint64_t fallback) const noexcept {
  return net_ != nullptr ? net_->now() : fallback;
}

std::uint16_t FlightRecorder::intern(const char* kind) {
  const auto it = kind_ids_.find(std::string_view{kind});
  if (it != kind_ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(kinds_.size());
  kinds_.emplace_back(kind);
  kind_ids_.emplace(kinds_.back(), id);
  kind_msgs_.push_back(msg_of(kinds_.back()));
  return id;
}

void FlightRecorder::record(RecEvent ev) {
  ev.seq = next_seq_++;
  if (ledger_ != nullptr) ledger_->consume(ev);
  if (capacity_ == 0) return;

  Ring& ring = rings_[ev.pid];
  // Allocated on its first event; pages become resident as the ring fills.
  if (ring.buf.capacity() == 0) ring.buf.reserve(capacity_);
  if (ring.count >= capacity_) {
    ++dropped_;
    ring.buf[ring.count % capacity_] = ev;
  } else {
    ++retained_;
    ring.buf.push_back(ev);
  }
  ++ring.count;
  ++appended_;

  if (reference_ != nullptr && !divergence_.found) {
    const auto& evs = reference_->events;
    const auto ref = std::lower_bound(
        evs.begin(), evs.end(), ev.seq,
        [](const RecEvent& e, std::uint64_t seq) { return e.seq < seq; });
    if (ref != evs.end() && ref->seq == ev.seq) {
      if (!(*ref == ev)) {
        divergence_ = Divergence{true, false, ev.seq, *ref, ev};
      }
    } else if (ev.seq >= reference_->next_seq) {
      // Past the recorded end: the live run produced traffic the reference
      // never saw.  A seq below next_seq but absent from the merge was
      // merely overwritten in the reference ring — not comparable.
      divergence_ = Divergence{true, true, ev.seq, RecEvent{}, ev};
    }
  }
}

void FlightRecorder::transport(RecKind kind, std::uint32_t ring_pid,
                               const net::Envelope& env) {
  const std::uint32_t peer =
      ring_pid == raw(env.src) ? raw(env.dst) : raw(env.src);
  RecEvent ev = make_event(kind, ring_pid, peer, env.seq, 0,
                           clock(env.sent_at));
  ev.detail = intern(env.msg->kind());
  ev.weight = static_cast<std::uint32_t>(env.msg->weight());
  const RecMsg msg = kind_msgs_[ev.detail];
  ev.msg = static_cast<std::uint8_t>(msg);
  // Each message type has its own kind() name, so the type msg_of picked
  // for the name is the message's dynamic type.
  const net::Message& m = *env.msg;
  switch (msg) {
    case RecMsg::kCdm: {
      const gc::Cdm& cdm = static_cast<const gc::CdmMsg&>(m).cdm;
      ev.b = cdm.detection_id;
      ev.c = raw(cdm.candidate.object);
      ev.d = cdm.started_step;
      break;
    }
    case RecMsg::kCut: {
      const auto& cut = static_cast<const gc::CutMsg&>(m);
      ev.b = cut.detection_id;
      ev.c = raw(cut.candidate);
      break;
    }
    case RecMsg::kPropCut: {
      const auto& cut = static_cast<const gc::PropCutMsg&>(m);
      ev.c = raw(cut.object);
      ev.d = cut.detection_id;
      break;
    }
    case RecMsg::kPropagate:
      ev.c = raw(static_cast<const rm::PropagateMsg&>(m).object);
      break;
    case RecMsg::kInvoke:
      ev.c = raw(static_cast<const rm::InvokeMsg&>(m).target);
      break;
    case RecMsg::kUnreachable:
      ev.c = raw(static_cast<const gc::UnreachableMsg&>(m).object);
      break;
    case RecMsg::kReclaim:
      ev.c = raw(static_cast<const gc::ReclaimMsg&>(m).object);
      break;
    case RecMsg::kOther:
      break;
  }
  record(ev);
}

void FlightRecorder::on_send(const net::Envelope& env) {
  transport(RecKind::kSend, raw(env.src), env);
}

void FlightRecorder::on_deliver(const net::Envelope& env) {
  transport(RecKind::kDeliver, raw(env.dst), env);
}

void FlightRecorder::on_drop(const net::Envelope& env) {
  transport(RecKind::kDrop, raw(env.src), env);
}

void FlightRecorder::on_duplicate(const net::Envelope& env) {
  transport(RecKind::kDuplicate, raw(env.src), env);
}

void FlightRecorder::phase(RecPhase code, std::uint64_t a, std::uint64_t b) {
  RecEvent ev = make_event(RecKind::kPhase, raw(kNoProcess), raw(kNoProcess),
                           a, b, clock(0));
  ev.detail = code;
  record(ev);
}

void FlightRecorder::append(RecKind kind, ProcessId pid, std::uint64_t a,
                            std::uint64_t b, ProcessId peer) {
  record(make_event(kind, raw(pid), raw(peer), a, b, clock(0)));
}

void FlightRecorder::verdict(ProcessId at, const gc::Cdm& cdm,
                             std::uint64_t unlinked) {
  const std::uint64_t now = clock(0);
  RecEvent ev = make_event(RecKind::kVerdict, raw(at), raw(kNoProcess),
                           raw(cdm.candidate.object), cdm.detection_id, now);
  ev.c = cdm.started_step;
  ev.d = unlinked;
  record(ev);
  // Replica elements sort first and by object, so one object's replicas
  // are adjacent.
  std::size_t members = 0;
  ObjectId last = kNoObject;
  for (const gc::Element& el : cdm.targets) {
    if (el.tag != gc::Element::Kind::kReplica ||
        members == kLedgerMaxMembers) {
      break;
    }
    const ObjectId object = el.replica.object;
    if (object == last || object == cdm.candidate.object) continue;
    last = object;
    ++members;
    record(make_event(RecKind::kVerdictMember, raw(at),
                      raw(el.replica.process), raw(object), cdm.detection_id,
                      now));
  }
}

void FlightRecorder::cut_applied(ProcessId pid, std::uint64_t detection_id,
                                 std::uint64_t scions_cut,
                                 std::uint64_t props_cut,
                                 std::uint64_t stale) {
  RecEvent ev = make_event(RecKind::kCutApplied, raw(pid), raw(kNoProcess),
                           scions_cut, detection_id, clock(0));
  ev.c = props_cut;
  ev.d = stale;
  record(ev);
}

void encode_event(std::string& out, const RecEvent& e) {
  put_u64(out, e.seq);
  put_u64(out, e.step);
  put_u64(out, e.a);
  put_u64(out, e.b);
  put_u64(out, e.c);
  put_u64(out, e.d);
  put_u32(out, e.pid);
  put_u32(out, e.peer);
  put_u32(out, e.weight);
  put_u16(out, e.detail);
  put_u8(out, e.kind);
  put_u8(out, e.msg);
}

std::string FlightRecorder::encode(const RecStamp& stamp) const {
  std::string out;
  out.reserve(64 + retained_ * kEventBytes);
  put_u32(out, kRecMagic);
  put_u32(out, kRecVersion);
  put_u64(out, stamp.seed);
  put_u32(out, stamp.processes);
  put_u64(out, stamp.drop_bits);
  put_u64(out, stamp.dup_bits);
  put_u32(out, stamp.max_delay);
  put_u64(out, stamp.lease_timeout);
  put_u32(out, stamp.rounds);
  put_u32(out, stamp.capacity);
  put_u32(out, stamp.min_delay);
  put_u64(out, next_seq_);
  put_u64(out, appended_);
  put_u64(out, dropped_);
  put_u32(out, static_cast<std::uint32_t>(kinds_.size()));
  for (const std::string& k : kinds_) {
    put_u32(out, static_cast<std::uint32_t>(k.size()));
    out.append(k);
  }
  put_u32(out, static_cast<std::uint32_t>(rings_.size()));
  for (const auto& [pid, ring] : rings_) {
    const std::uint64_t n = std::min<std::uint64_t>(ring.count, capacity_);
    put_u32(out, pid);
    put_u64(out, ring.count - n);  // events lost to overwrite
    put_u32(out, static_cast<std::uint32_t>(n));
    // Oldest first: a full ring starts right after the newest slot.
    const std::uint64_t start = ring.count >= capacity_
                                    ? ring.count % capacity_
                                    : 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      encode_event(out, ring.buf[(start + i) % capacity_]);
    }
  }
  put_u64(out, util::fnv1a(out));
  return out;
}

std::optional<RecordedRun> FlightRecorder::decode(const std::string& bytes) {
  if (bytes.size() < 12 + 8) return std::nullopt;
  const std::string_view body{bytes.data(), bytes.size() - 8};
  util::ByteReader trailer{std::string_view{bytes}.substr(body.size())};
  if (util::fnv1a(body) != trailer.u64()) return std::nullopt;

  util::ByteReader r{body};
  if (r.u32() != kRecMagic) return std::nullopt;
  if (r.u32() != kRecVersion) return std::nullopt;
  RecordedRun run;
  run.stamp.seed = r.u64();
  run.stamp.processes = r.u32();
  run.stamp.drop_bits = r.u64();
  run.stamp.dup_bits = r.u64();
  run.stamp.max_delay = r.u32();
  run.stamp.lease_timeout = r.u64();
  run.stamp.rounds = r.u32();
  run.stamp.capacity = r.u32();
  run.stamp.min_delay = r.u32();
  run.next_seq = r.u64();
  run.appended = r.u64();
  run.dropped = r.u64();
  const std::uint32_t nkinds = r.count(4);
  for (std::uint32_t i = 0; i < nkinds && r.ok; ++i) {
    const std::uint32_t len = r.count(1);
    const std::string_view kind = r.take(len);
    if (r.ok) run.kinds.emplace_back(kind);
  }
  const std::uint32_t nrings = r.count(4 + 8 + 4);
  std::size_t total = 0;
  for (std::uint32_t i = 0; i < nrings && r.ok; ++i) {
    RecRing ring;
    ring.pid = r.u32();
    ring.dropped = r.u64();
    const std::uint32_t n = r.count(kEventBytes);
    ring.events.reserve(n);
    for (std::uint32_t j = 0; j < n && r.ok; ++j) {
      ring.events.push_back(read_event(r));
    }
    total += ring.events.size();
    run.rings.push_back(std::move(ring));
  }
  if (!r.ok || r.at != r.bytes.size()) return std::nullopt;

  run.events.reserve(total);
  for (const RecRing& ring : run.rings) {
    run.events.insert(run.events.end(), ring.events.begin(),
                      ring.events.end());
  }
  std::sort(run.events.begin(), run.events.end(),
            [](const RecEvent& a, const RecEvent& b) { return a.seq < b.seq; });
  return run;
}

bool dump_recording(const FlightRecorder& recorder, const RecStamp& stamp,
                    const std::string& path) {
  const std::string bytes = recorder.encode(stamp);
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  const bool ok = static_cast<bool>(out);
  if (ok) {
    RGC_INFO("recorder: dumped ", bytes.size(), " bytes (",
             recorder.depth(), " events) to ", path);
  }
  return ok;
}

namespace {

FlightRecorder* g_abort_recorder = nullptr;
RecStamp g_abort_stamp;
std::string g_abort_path;

// Best effort only: encode() allocates, which is not async-signal-safe —
// acceptable for SIGABRT, where the alternative is losing the recording
// with the process.
extern "C" void abort_dump_handler(int sig) {
  if (g_abort_recorder != nullptr && !g_abort_path.empty()) {
    const std::string bytes = g_abort_recorder->encode(g_abort_stamp);
    if (std::FILE* f = std::fopen(g_abort_path.c_str(), "wb")) {
      std::fwrite(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void arm_abort_dump(FlightRecorder* recorder, RecStamp stamp,
                    std::string path) {
  g_abort_recorder = recorder;
  g_abort_stamp = stamp;
  g_abort_path = std::move(path);
  std::signal(SIGABRT, recorder != nullptr ? abort_dump_handler : SIG_DFL);
}

}  // namespace rgc::obs
