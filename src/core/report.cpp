#include "core/report.h"

#include <ostream>
#include <sstream>

#include "obs/health.h"
#include "util/trace.h"

namespace rgc::core {
namespace {

/// GC-relevant counter prefixes worth surfacing in the aggregate view.
bool interesting_counter(const std::string& name) {
  return name.starts_with("lgc.") || name.starts_with("adgc.") ||
         name.starts_with("cycle.");
}

}  // namespace

ClusterReport make_report(const Cluster& cluster) {
  ClusterReport report;
  report.now = cluster.now();
  report.cycles_found = cluster.cycles_found().size();

  std::map<std::string, std::uint64_t> gc_totals;
  std::map<std::string, util::Histogram> hist_totals;
  for (ProcessId pid : cluster.process_ids()) {
    const rm::Process& proc = cluster.process(pid);
    ProcessReport row;
    row.process = pid;
    row.objects = proc.heap().size();
    row.roots = proc.heap().roots().size();
    row.stubs = proc.stubs().size();
    row.scions = proc.scions().size();
    row.in_props = proc.in_props().size();
    row.out_props = proc.out_props().size();
    row.collections = proc.metrics().get("lgc.collections");
    row.reclaimed = proc.metrics().get("lgc.reclaimed");
    report.processes.push_back(row);

    for (const auto& [name, value] : proc.metrics().snapshot()) {
      if (value != 0 && interesting_counter(name)) gc_totals[name] += value;
    }
    for (const auto& [name, hist] : proc.metrics().histogram_snapshot()) {
      if (hist->count() != 0) hist_totals[name].merge(*hist);
    }
  }
  for (const auto& [name, value] : cluster.network().metrics().snapshot()) {
    constexpr std::string_view kSentPrefix = "net.sent.";
    if (value != 0 && name.starts_with(kSentPrefix)) {
      report.traffic.emplace_back(name.substr(kSentPrefix.size()), value);
    }
    // Cluster-level incidents counted into the network registry (e.g.
    // cluster.quiescence_timeout) and the GC daemon's scheduling counters
    // (daemon.collections, daemon.skipped_sweeps, ...) surface alongside
    // the GC counters.
    if (value != 0 &&
        (name.starts_with("cluster.") || name.starts_with("daemon."))) {
      gc_totals[name] += value;
    }
  }
  // Cluster-level gauges (e.g. cycle.summary_dirty_fraction) ride along in
  // the same table; last-set value, not a sum.
  for (const auto& [name, value] : cluster.network().metrics().gauge_snapshot()) {
    if (value != 0 && (name.starts_with("cycle.") || name.starts_with("cluster.") ||
                       name.starts_with("daemon."))) {
      gc_totals[name] = value;
    }
  }
  // The cost ledger's registry is deterministic (fed only from serial
  // phases), so unlike the recorder/profile registries it belongs in the
  // report: counters and gauges into the gc table, histograms merged.
  if (const obs::Ledger* ledger = cluster.ledger(); ledger != nullptr) {
    for (const auto& [name, value] : ledger->metrics().snapshot()) {
      if (value != 0) gc_totals[name] += value;
    }
    for (const auto& [name, value] : ledger->metrics().gauge_snapshot()) {
      if (value != 0) gc_totals[name] = value;
    }
    for (const auto& [name, hist] : ledger->metrics().histogram_snapshot()) {
      if (hist->count() != 0) hist_totals[name].merge(*hist);
    }
    constexpr std::size_t kTopK = 5;
    for (const obs::LedgerEntry* e : ledger->slowest(kTopK)) {
      report.slowest_cycles.push_back(*e);
    }
  }
  report.gc_counters.assign(gc_totals.begin(), gc_totals.end());
  for (const auto& [name, hist] :
       cluster.network().metrics().histogram_snapshot()) {
    if (hist->count() != 0) hist_totals[name].merge(*hist);
  }
  report.histograms.assign(hist_totals.begin(), hist_totals.end());

  const obs::HealthReport& health = cluster.health();
  report.health.present = health.audit_runs != 0;
  if (report.health.present) {
    report.health.step = health.step;
    report.health.deep = health.deep;
    report.health.audit_runs = health.audit_runs;
    report.health.deep_runs = health.deep_runs;
    report.health.worst = obs::to_string(health.worst());
    report.health.errors = health.errors();
    report.health.warnings = health.warnings();
    report.health.findings.reserve(health.findings.size());
    for (const obs::Finding& f : health.findings) {
      report.health.findings.push_back(f.to_string());
    }
  }
  return report;
}

std::string ClusterReport::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const ClusterReport& report) {
  os << "cluster @ step " << report.now << ", cycles proven "
     << report.cycles_found << "\n";
  os << "  proc  objects  roots  stubs  scions  inprops  outprops  "
        "collections  reclaimed\n";
  for (const ProcessReport& row : report.processes) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-5s %8zu %6zu %6zu %7zu %8zu %9zu %12llu %10llu\n",
                  to_string(row.process).c_str(), row.objects, row.roots,
                  row.stubs, row.scions, row.in_props, row.out_props,
                  static_cast<unsigned long long>(row.collections),
                  static_cast<unsigned long long>(row.reclaimed));
    os << line;
  }
  if (!report.traffic.empty()) {
    os << "  traffic:";
    for (const auto& [kind, count] : report.traffic) {
      os << " " << kind << "=" << count;
    }
    os << "\n";
  }
  if (!report.gc_counters.empty()) {
    os << "  gc:";
    for (const auto& [name, value] : report.gc_counters) {
      os << " " << name << "=" << value;
    }
    os << "\n";
  }
  for (const auto& [name, hist] : report.histograms) {
    os << "  hist " << name << ": " << hist.to_string() << "\n";
  }
  if (!report.slowest_cycles.empty()) {
    os << "  slowest cycles (ledger):\n";
    os << "    detection            candidate    e2e  detect    cut  sweep  "
          "hops  dominant\n";
    for (const obs::LedgerEntry& e : report.slowest_cycles) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "    %-20llu %-10s %6llu %7llu %6llu %6llu %5zu  %s\n",
                    static_cast<unsigned long long>(e.detection_id),
                    (to_string(e.candidate) + "@" +
                     to_string(e.candidate_process))
                        .c_str(),
                    static_cast<unsigned long long>(e.e2e_steps),
                    static_cast<unsigned long long>(e.detect_steps),
                    static_cast<unsigned long long>(e.cut_wait_steps +
                                                    e.cut_transit_steps),
                    static_cast<unsigned long long>(e.sweep_wait_steps),
                    e.path.size(), e.dominant().c_str());
      os << line;
    }
  }
  if (report.health.present) {
    os << "  health: " << report.health.worst << " (" << report.health.errors
       << " errors, " << report.health.warnings << " warnings, "
       << (report.health.deep ? "deep" : "shallow") << " audit @ step "
       << report.health.step << ", " << report.health.audit_runs << " runs)\n";
    for (const std::string& finding : report.health.findings) {
      os << "    " << finding << "\n";
    }
  }
  return os;
}

std::string ClusterReport::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void ClusterReport::write_json(std::ostream& os) const {
  os << "{\n  \"now\": " << now << ",\n  \"cycles_found\": " << cycles_found
     << ",\n  \"processes\": [\n";
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const ProcessReport& row = processes[i];
    os << "    {\"process\": " << raw(row.process)
       << ", \"objects\": " << row.objects << ", \"roots\": " << row.roots
       << ", \"stubs\": " << row.stubs << ", \"scions\": " << row.scions
       << ", \"in_props\": " << row.in_props
       << ", \"out_props\": " << row.out_props
       << ", \"collections\": " << row.collections
       << ", \"reclaimed\": " << row.reclaimed << "}"
       << (i + 1 < processes.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"traffic\": {";
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << util::json_escape(traffic[i].first)
       << "\": " << traffic[i].second;
  }
  os << "},\n  \"gc_counters\": {";
  for (std::size_t i = 0; i < gc_counters.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\""
       << util::json_escape(gc_counters[i].first)
       << "\": " << gc_counters[i].second;
  }
  os << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const util::Histogram& h = histograms[i].second;
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << util::json_escape(histograms[i].first) << "\": {\"count\": "
       << h.count() << ", \"sum\": " << h.sum() << ", \"min\": " << h.min()
       << ", \"max\": " << h.max() << ", \"buckets\": [";
    // Trailing zero buckets carry no information; stop at the last non-zero.
    std::size_t last = 0;
    for (std::size_t b = 0; b < util::Histogram::kBuckets; ++b) {
      if (h.buckets()[b] != 0) last = b;
    }
    for (std::size_t b = 0; b <= last; ++b) {
      os << (b == 0 ? "" : ", ") << h.buckets()[b];
    }
    os << "]}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "},\n  \"slowest_cycles\": [";
  for (std::size_t i = 0; i < slowest_cycles.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ") << slowest_cycles[i].to_json();
  }
  os << (slowest_cycles.empty() ? "" : "\n  ") << "],\n  \"health\": {";
  os << "\"present\": " << (health.present ? "true" : "false");
  if (health.present) {
    os << ", \"worst\": \"" << util::json_escape(health.worst)
       << "\", \"errors\": " << health.errors
       << ", \"warnings\": " << health.warnings << ", \"step\": " << health.step
       << ", \"deep\": " << (health.deep ? "true" : "false")
       << ", \"audit_runs\": " << health.audit_runs
       << ", \"deep_runs\": " << health.deep_runs << ", \"findings\": [";
    for (std::size_t i = 0; i < health.findings.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "\"" << util::json_escape(health.findings[i])
         << "\"";
    }
    os << "]";
  }
  os << "}\n}\n";
}

}  // namespace rgc::core
