#include "util/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace rgc::util {

namespace {

/// `net.sent.CDM` -> `rgc_net_sent_CDM`.
std::string prom_name(std::string_view raw) {
  std::string out = "rgc_";
  for (char c : raw) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

void prom_line(std::ostream& os, const std::string& name,
               std::string_view labels, std::string_view extra_label,
               double value) {
  os << name;
  if (!labels.empty() || !extra_label.empty()) {
    os << '{' << labels;
    if (!labels.empty() && !extra_label.empty()) os << ',';
    os << extra_label << '}';
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  os << ' ' << buf << '\n';
}

}  // namespace

std::uint64_t Metrics::get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Counter Metrics::counter(const std::string& name) {
  return Counter{&counters_[name]};
}

Gauge Metrics::gauge(const std::string& name) { return Gauge{&gauges_[name]}; }

std::uint64_t Metrics::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

Histogram& Metrics::histogram(const std::string& name) {
  return histograms_[name];
}

const Histogram* Metrics::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Metrics::reset() {
  for (auto& [name, value] : counters_) value = 0;
  for (auto& [name, value] : gauges_) value = 0;
  for (auto& [name, hist] : histograms_) hist.reset();
}

std::vector<std::pair<std::string, std::uint64_t>> Metrics::snapshot() const {
  return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, std::uint64_t>> Metrics::gauge_snapshot() const {
  return {gauges_.begin(), gauges_.end()};
}

std::vector<std::pair<std::string, const Histogram*>> Metrics::histogram_snapshot() const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) out.emplace_back(name, &hist);
  return out;
}

std::uint64_t parse_vmhwm_kib(std::string_view status_line) {
  constexpr std::string_view kField = "VmHWM:";
  if (status_line.substr(0, kField.size()) != kField) return 0;
  std::size_t i = kField.size();
  while (i < status_line.size() &&
         (status_line[i] == ' ' || status_line[i] == '\t')) {
    ++i;
  }
  std::uint64_t kib = 0;
  bool any = false;
  for (; i < status_line.size(); ++i) {
    const char c = status_line[i];
    if (c < '0' || c > '9') break;
    if (kib > (~std::uint64_t{0} - (c - '0')) / 10) return 0;  // overflow
    kib = kib * 10 + static_cast<std::uint64_t>(c - '0');
    any = true;
  }
  if (!any || kib > (~std::uint64_t{0}) / 1024) return 0;
  while (i < status_line.size() &&
         (status_line[i] == ' ' || status_line[i] == '\t')) {
    ++i;
  }
  // Procfs reports VmHWM in kB; any other (or missing) unit means the
  // layout is not what we parse, so report "unavailable" over nonsense.
  if (status_line.substr(i, 2) != "kB") return 0;
  return kib;
}

std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::uint64_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if ((kib = parse_vmhwm_kib(line)) != 0) break;
  }
  std::fclose(f);
  return kib * 1024;
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Inclusive upper bound of bucket i (0, 1, 3, 7, 15, ...).
      const std::uint64_t hi = i == 0 ? 0 : (1ull << i) - 1;
      if (hi < min_) return min_;
      return hi > max_ ? max_ : hi;
    }
  }
  return max_;
}

std::string Histogram::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu min=%llu max=%llu mean=%.2f p50=%llu p90=%llu "
                "p99=%llu",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(min_),
                static_cast<unsigned long long>(max_), mean(),
                static_cast<unsigned long long>(percentile(0.50)),
                static_cast<unsigned long long>(percentile(0.90)),
                static_cast<unsigned long long>(percentile(0.99)));
  return buf;
}

void Metrics::to_prometheus(std::ostream& os, std::string_view labels) const {
  for (const auto& [name, value] : counters_) {
    const std::string pn = prom_name(name);
    os << "# TYPE " << pn << " counter\n";
    prom_line(os, pn, labels, {}, static_cast<double>(value));
  }
  for (const auto& [name, value] : gauges_) {
    const std::string pn = prom_name(name);
    os << "# TYPE " << pn << " gauge\n";
    prom_line(os, pn, labels, {}, static_cast<double>(value));
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string pn = prom_name(name);
    os << "# TYPE " << pn << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (hist.buckets()[i] == 0) continue;
      cum += hist.buckets()[i];
      const std::uint64_t hi = i == 0 ? 0 : (1ull << i) - 1;
      char le[48];
      std::snprintf(le, sizeof(le), "le=\"%llu\"",
                    static_cast<unsigned long long>(hi));
      prom_line(os, pn + "_bucket", labels, le, static_cast<double>(cum));
    }
    prom_line(os, pn + "_bucket", labels, "le=\"+Inf\"",
              static_cast<double>(hist.count()));
    prom_line(os, pn + "_sum", labels, {}, static_cast<double>(hist.sum()));
    prom_line(os, pn + "_count", labels, {}, static_cast<double>(hist.count()));
  }
}

}  // namespace rgc::util
