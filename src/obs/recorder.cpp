#include "obs/recorder.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

#include "gc/cycle/cdm.h"
#include "util/bytes.h"
#include "util/log.h"

namespace rgc::obs {

namespace {

// `.rgcrec` framing: util/bytes.h fields, a magic+version header, and a
// trailing FNV-1a checksum over everything before it.
constexpr std::uint32_t kRecMagic = 0x52474352;  // "RCGR"
constexpr std::uint32_t kRecVersion = 2;  // v2: + kDetectStart, kVerdict
constexpr std::size_t kEventBytes = 44;

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
  e.pid = r.u32();
  e.peer = r.u32();
  e.detail = r.u16();
  e.kind = r.u8();
  e.pad = r.u8();
  return e;
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
  }
  return "?";
}

FlightRecorder::FlightRecorder(RecorderConfig config)
    : capacity_(config.capacity == 0 ? 1 : config.capacity) {
  depth_gauge_ = metrics_.gauge("recorder.depth");
  appended_gauge_ = metrics_.gauge("recorder.appended_total");
  dropped_gauge_ = metrics_.gauge("recorder.dropped_total");
  metrics_.gauge("recorder.capacity").set(capacity_);
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
  if (kinds_.back() == "CDM") cdm_kind_ = id;
  if (kinds_.back() == "Cut") cut_kind_ = id;
  return id;
}

void FlightRecorder::record(RecKind kind, std::uint32_t pid,
                            std::uint32_t peer, std::uint16_t detail,
                            std::uint64_t a, std::uint64_t b,
                            std::uint64_t step) {
  RecEvent ev;
  ev.seq = next_seq_++;
  ev.step = step;
  ev.a = a;
  ev.b = b;
  ev.pid = pid;
  ev.peer = peer;
  ev.detail = detail;
  ev.kind = static_cast<std::uint8_t>(kind);

  Ring& ring = rings_[pid];
  if (ring.buf.empty()) ring.buf.resize(capacity_);  // first event: allocate
  if (ring.count >= capacity_) {
    ++dropped_;
    dropped_gauge_.set(dropped_);
  } else {
    ++retained_;
    depth_gauge_.set(retained_);
  }
  ring.buf[ring.count % capacity_] = ev;
  ++ring.count;
  ++appended_;
  appended_gauge_.set(appended_);

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
  const std::uint16_t k = intern(env.msg->kind());
  std::uint64_t lineage = 0;
  if (k == cdm_kind_) {
    if (const auto* m = dynamic_cast<const gc::CdmMsg*>(env.msg)) {
      lineage = m->cdm.detection_id;
    }
  } else if (k == cut_kind_) {
    if (const auto* m = dynamic_cast<const gc::CutMsg*>(env.msg)) {
      lineage = m->detection_id;
    }
  }
  const std::uint32_t peer =
      ring_pid == raw(env.src) ? raw(env.dst) : raw(env.src);
  record(kind, ring_pid, peer, k, env.seq, lineage, clock(env.sent_at));
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
  record(RecKind::kPhase, raw(kNoProcess), raw(kNoProcess), code, a, b,
         clock(0));
}

void FlightRecorder::sweep(ProcessId pid, std::uint64_t reclaimed,
                           std::uint64_t traced) {
  record(RecKind::kSweep, raw(pid), raw(kNoProcess), 0, reclaimed, traced,
         clock(0));
}

void FlightRecorder::reclaim_decision(ProcessId pid, ProcessId from,
                                      ObjectId object) {
  record(RecKind::kReclaim, raw(pid), raw(from), 0, raw(object), 0, clock(0));
}

void FlightRecorder::lease_expiry(ProcessId pid, std::uint64_t retired) {
  record(RecKind::kLeaseExpiry, raw(pid), raw(kNoProcess), 0, retired, 0,
         clock(0));
}

void FlightRecorder::fault(RecKind kind, ProcessId pid, std::uint64_t a,
                           std::uint64_t b) {
  record(kind, raw(pid), raw(kNoProcess), 0, a, b, clock(0));
}

void FlightRecorder::audit_error(std::uint64_t errors) {
  record(RecKind::kAuditError, raw(kNoProcess), raw(kNoProcess), 0, errors, 0,
         clock(0));
}

void FlightRecorder::detection(RecKind kind, ProcessId pid,
                               std::uint64_t detection_id, ObjectId candidate) {
  record(kind, raw(pid), raw(kNoProcess), 0, raw(candidate), detection_id,
         clock(0));
}

void encode_event(std::string& out, const RecEvent& e) {
  put_u64(out, e.seq);
  put_u64(out, e.step);
  put_u64(out, e.a);
  put_u64(out, e.b);
  put_u32(out, e.pid);
  put_u32(out, e.peer);
  put_u16(out, e.detail);
  put_u8(out, e.kind);
  put_u8(out, e.pad);
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

std::string describe(const RecEvent& event,
                     const std::vector<std::string>& kinds) {
  const auto kind = static_cast<RecKind>(event.kind);
  std::string out = "seq=" + std::to_string(event.seq) +
                    " step=" + std::to_string(event.step) + " ";
  const auto pid_str = [](std::uint32_t pid) {
    return pid == raw(kNoProcess) ? std::string{"cluster"}
                                  : to_string(ProcessId{pid});
  };
  out += pid_str(event.pid);
  out += ' ';
  out += to_string(kind);
  switch (kind) {
    case RecKind::kSend:
    case RecKind::kDrop:
    case RecKind::kDuplicate:
      out += ' ';
      out += event.detail < kinds.size() ? kinds[event.detail] : "?";
      out += " to " + pid_str(event.peer) + " link=" + std::to_string(event.a);
      if (event.b != 0) out += " lineage=" + std::to_string(event.b);
      break;
    case RecKind::kDeliver:
      out += ' ';
      out += event.detail < kinds.size() ? kinds[event.detail] : "?";
      out += " from " + pid_str(event.peer) +
             " link=" + std::to_string(event.a);
      if (event.b != 0) out += " lineage=" + std::to_string(event.b);
      break;
    case RecKind::kPhase:
      out += event.detail == kPhaseCollectRound ? " collect_round"
             : event.detail == kPhaseSnapshotAll ? " snapshot_all"
                                                 : " ?";
      out += " a=" + std::to_string(event.a) + " b=" + std::to_string(event.b);
      break;
    case RecKind::kSweep:
      out += " reclaimed=" + std::to_string(event.a) +
             " traced=" + std::to_string(event.b);
      break;
    case RecKind::kReclaim:
      out += " object=" + std::to_string(event.a) + " from " +
             pid_str(event.peer);
      break;
    case RecKind::kLeaseExpiry:
      out += " retired=" + std::to_string(event.a);
      break;
    case RecKind::kRestart:
      out += " incarnation=" + std::to_string(event.a) +
             (event.b != 0 ? " rehydrated" : " empty");
      break;
    case RecKind::kPersist:
      out += " bytes=" + std::to_string(event.a);
      break;
    case RecKind::kPartition:
      out += " groups=" + std::to_string(event.a);
      break;
    case RecKind::kAuditError:
      out += " errors=" + std::to_string(event.a);
      break;
    case RecKind::kDetectStart:
    case RecKind::kVerdict:
      out += " detection=" + std::to_string(event.b) +
             " candidate=" + std::to_string(event.a);
      break;
    case RecKind::kKill:
    case RecKind::kHeal:
      break;
  }
  return out;
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
