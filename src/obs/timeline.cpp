#include "obs/timeline.h"

#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "util/trace.h"

namespace rgc::obs {
namespace {

constexpr std::uint32_t kCluster = raw(kNoProcess);

/// Chrome trace timestamps: sim time scaled so one step is 1000 ticks —
/// wide enough that several protocol instants within a step stay readable.
constexpr std::uint64_t kTicksPerStep = 1000;

/// Synthetic Chrome pid for cluster-global events.
constexpr std::uint32_t kGlobalPid = 1000000;

const char* name_of(const RecEvent& e, bool cdm) {
  switch (static_cast<RecKind>(e.kind)) {
    case RecKind::kSend: return cdm ? "cdm.send" : "net.send";
    case RecKind::kDeliver: return cdm ? "cdm.recv" : "net.deliver";
    case RecKind::kDrop: return "net.drop";
    case RecKind::kDuplicate: return "net.duplicate";
    case RecKind::kDetectStart: return "cdm.start";
    case RecKind::kVerdict: return "cycle.detected";
    default: return to_string(static_cast<RecKind>(e.kind));
  }
}

/// (key, value) annotations of a recorded event, per RecKind's field map.
void write_args(std::ostream& os, const std::vector<std::string>& kinds,
                const RecEvent& e) {
  bool first = true;
  const auto arg = [&](const char* key, std::uint64_t v) {
    os << (first ? "" : ",") << "\"" << key << "\":" << v;
    first = false;
  };
  os << "{";
  switch (static_cast<RecKind>(e.kind)) {
    case RecKind::kSend:
    case RecKind::kDeliver:
    case RecKind::kDrop:
    case RecKind::kDuplicate:
      os << "\"kind\":\""
         << util::json_escape(e.detail < kinds.size() ? kinds[e.detail] : "?")
         << "\"";
      first = false;
      arg("peer", e.peer);
      arg("link", e.a);
      if (e.b != 0) arg("detection", e.b);
      break;
    case RecKind::kDetectStart:
    case RecKind::kVerdict:
      arg("detection", e.b);
      arg("candidate", e.a);
      break;
    case RecKind::kPhase:
      if (e.detail == kPhaseCollectRound) {
        os << "\"phase\":\"collect_round\"";
        first = false;
        arg("reclaimed", e.a);
        arg("processes", e.b);
      } else {
        os << "\"phase\":\"snapshot_all\"";
        first = false;
        arg("processes", e.a);
      }
      break;
    case RecKind::kSweep:
      arg("reclaimed", e.a);
      arg("traced", e.b);
      break;
    case RecKind::kReclaim:
      arg("object", e.a);
      arg("from", e.peer);
      break;
    case RecKind::kLeaseExpiry: arg("retired", e.a); break;
    case RecKind::kKill: arg("incarnation", e.a); break;
    case RecKind::kRestart:
      arg("incarnation", e.a);
      arg("rehydrated", e.b);
      break;
    case RecKind::kPersist: arg("bytes", e.a); break;
    case RecKind::kPartition: arg("groups", e.a); break;
    case RecKind::kAuditError: arg("errors", e.a); break;
    case RecKind::kVerdictMember:
      arg("detection", e.b);
      arg("member", e.a);
      arg("process", e.peer);
      break;
    case RecKind::kCutApplied:
      arg("detection", e.b);
      arg("scions", e.a);
      arg("props", e.c);
      arg("stale", e.d);
      break;
    case RecKind::kFreed: arg("object", e.a); break;
    case RecKind::kHeal: break;
  }
  os << "}";
}

std::string_view category_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

std::uint32_t chrome_pid(const ViewEvent& ev) {
  return ev.proc == kCluster ? kGlobalPid : ev.proc;
}

}  // namespace

std::vector<ViewEvent> timeline_events(const RecordedRun& run) {
  std::vector<ViewEvent> out;
  out.reserve(run.events.size() + run.events.size() / 4);
  // (src, dst, link seq) -> the send's id.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>,
           std::uint64_t>
      sends;
  // (process, detection id) -> id of the detection's latest start, CDM
  // delivery or verdict there.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> latest;
  const auto find = [](const auto& map, const auto& key) -> std::uint64_t {
    const auto it = map.find(key);
    return it == map.end() ? 0 : it->second;
  };

  std::int64_t depth = 0;
  bool moved = false;
  const auto sample_depth = [&](std::uint64_t step) {
    if (!moved) return;
    ViewEvent c;
    c.name = "net.queue_depth";
    c.step = step;
    c.proc = kCluster;
    c.value = depth > 0 ? static_cast<std::uint64_t>(depth) : 0;
    out.push_back(c);
    moved = false;
  };

  for (const RecEvent& e : run.events) {
    if (!out.empty() && e.step != out.back().step) {
      sample_depth(out.back().step);
    }
    const auto kind = static_cast<RecKind>(e.kind);
    const bool cdm = e.msg == static_cast<std::uint8_t>(RecMsg::kCdm);
    ViewEvent ev;
    ev.name = name_of(e, cdm);
    ev.step = e.step;
    ev.proc = e.pid;
    ev.id = e.seq + 1;
    ev.source = &e;
    switch (kind) {
      case RecKind::kSend:
        sends[{e.pid, e.peer, e.a}] = ev.id;
        if (e.b != 0) ev.parent = find(latest, std::pair{e.pid, e.b});
        ++depth;
        moved = true;
        break;
      case RecKind::kDeliver:
        ev.parent = find(sends, std::tuple{e.peer, e.pid, e.a});
        if (cdm) latest[{e.pid, e.b}] = ev.id;
        --depth;
        moved = true;
        break;
      case RecKind::kDrop:
      case RecKind::kDuplicate:
        ev.parent = find(sends, std::tuple{e.pid, e.peer, e.a});
        depth += kind == RecKind::kDrop ? -1 : 1;
        moved = true;
        break;
      case RecKind::kDetectStart:
        latest[{e.pid, e.b}] = ev.id;
        break;
      case RecKind::kVerdict:
        ev.parent = find(latest, std::pair{e.pid, e.b});
        latest[{e.pid, e.b}] = ev.id;
        break;
      default:
        break;
    }
    out.push_back(ev);
  }
  if (!out.empty()) sample_depth(out.back().step);
  return out;
}

std::string describe(const RecEvent& event,
                     const std::vector<std::string>& kinds) {
  std::ostringstream os;
  os << "seq=" << event.seq << " step=" << event.step << ' '
     << (event.pid == kCluster ? std::string{"cluster"}
                               : to_string(ProcessId{event.pid}))
     << ' ' << to_string(static_cast<RecKind>(event.kind)) << ' ';
  write_args(os, kinds, event);
  return os.str();
}

void write_timeline_jsonl(const RecordedRun& run, std::ostream& os) {
  for (const ViewEvent& ev : timeline_events(run)) {
    os << "{\"type\":\"" << (ev.source != nullptr ? "instant" : "counter")
       << "\",\"name\":\"" << ev.name << "\",\"step\":" << ev.step;
    if (ev.proc != kCluster) os << ",\"proc\":" << ev.proc;
    if (ev.id != 0) os << ",\"id\":" << ev.id;
    if (ev.parent != 0) os << ",\"parent\":" << ev.parent;
    if (ev.source != nullptr) {
      os << ",\"args\":";
      write_args(os, run.kinds, *ev.source);
    } else {
      os << ",\"value\":" << ev.value;
    }
    os << "}\n";
  }
}

void write_timeline_chrome(const RecordedRun& run, std::ostream& os) {
  const std::vector<ViewEvent> events = timeline_events(run);
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Process-name metadata so Perfetto labels tracks P0, P1, ... instead of
  // bare numbers.
  std::set<std::uint32_t> pids;
  for (const ViewEvent& ev : events) pids.insert(chrome_pid(ev));
  for (const std::uint32_t pid : pids) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"";
    if (pid == kGlobalPid) {
      os << "cluster";
    } else {
      os << "P" << pid;
    }
    os << "\"}}";
  }

  std::unordered_map<std::uint64_t, const ViewEvent*> by_id;
  for (const ViewEvent& ev : events) {
    if (ev.id != 0) by_id.emplace(ev.id, &ev);
  }

  for (const ViewEvent& ev : events) {
    const std::uint32_t pid = chrome_pid(ev);
    const std::uint64_t ts = ev.step * kTicksPerStep;
    sep();
    if (ev.source == nullptr) {
      os << "{\"ph\":\"C\",\"name\":\"" << ev.name << "\",\"ts\":" << ts
         << ",\"pid\":" << pid << ",\"tid\":0,\"args\":{\"value\":"
         << ev.value << "}}";
      continue;
    }
    // Lineage flow arrows need slice endpoints to bind to, so instants are
    // exported as thin slices (half a step wide).
    os << "{\"ph\":\"X\",\"name\":\"" << ev.name << "\",\"cat\":\""
       << category_of(ev.name) << "\",\"ts\":" << ts
       << ",\"dur\":" << kTicksPerStep / 2 << ",\"pid\":" << pid
       << ",\"tid\":0,\"args\":";
    write_args(os, run.kinds, *ev.source);
    os << "}";

    // One flow arrow per causal edge, from the parent's slice to this one;
    // the child's id (unique) names the flow.
    if (ev.parent == 0) continue;
    const ViewEvent& p = *by_id.at(ev.parent);
    sep();
    os << "{\"ph\":\"s\",\"name\":\"lineage\",\"cat\":\"lineage\",\"id\":"
       << ev.id << ",\"ts\":" << p.step * kTicksPerStep + 1
       << ",\"pid\":" << chrome_pid(p) << ",\"tid\":0}";
    sep();
    os << "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"lineage\",\"cat\":"
       << "\"lineage\",\"id\":" << ev.id << ",\"ts\":" << ts + 1
       << ",\"pid\":" << pid << ",\"tid\":0}";
  }
  os << "\n]}\n";
}

}  // namespace rgc::obs
