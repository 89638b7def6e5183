// Machine-readable bench output: one JSONL record per datapoint.
//
// Every bench binary keeps printing its human-readable table on stdout;
// when the environment variable RGC_BENCH_JSONL names a file, each
// datapoint is *additionally* appended there as one JSON object per line:
//
//   $ RGC_BENCH_JSONL=bench.jsonl ./bench_fig9_cdm_totals
//   $ jq 'select(.bench=="fig9") | [.R, .deps, .ours_cdms]' bench.jsonl
//
// Append semantics let one file collect a whole harness run across
// binaries.  With the variable unset this header costs one getenv per
// record and writes nothing.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <type_traits>

#include "util/trace.h"  // json_escape

namespace rgc::bench {

/// Builder for one JSONL record; emits on destruction (or emit()).
class RunRecord {
 public:
  explicit RunRecord(const std::string& bench) {
    const char* path = std::getenv("RGC_BENCH_JSONL");
    if (path == nullptr || path[0] == '\0') return;
    path_ = path;
    line_ = "{\"bench\":\"" + util::json_escape(bench) + "\"";
  }

  RunRecord(const RunRecord&) = delete;
  RunRecord& operator=(const RunRecord&) = delete;
  ~RunRecord() { emit(); }

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  RunRecord& field(const std::string& key, T value) {
    return raw(key, std::to_string(value));
  }
  RunRecord& field(const std::string& key, double value) {
    return raw(key, std::to_string(value));
  }
  RunRecord& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  RunRecord& field(const std::string& key, const std::string& value) {
    // Appended, not `"\"" + ...`: that form trips GCC 12's -Wrestrict false
    // positive in optimized builds.
    std::string quoted(1, '"');
    quoted += util::json_escape(value);
    quoted += '"';
    return raw(key, quoted);
  }
  RunRecord& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }

  /// Appends the record to $RGC_BENCH_JSONL; no-op when disabled or
  /// already emitted.
  void emit() {
    if (path_.empty()) return;
    std::ofstream os(path_, std::ios::app);
    if (os) os << line_ << "}\n";
    path_.clear();
  }

 private:
  RunRecord& raw(const std::string& key, const std::string& rendered) {
    if (!path_.empty()) {
      line_ += ",\"" + util::json_escape(key) + "\":" + rendered;
    }
    return *this;
  }

  std::string path_;
  std::string line_;
};

}  // namespace rgc::bench
