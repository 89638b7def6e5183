// In-memory spans recorded by the benchmark around every call it makes
// into a layer's public API (traced runs only).  Spans nest: each records
// the span that was open when it started.  Totals per name feed the
// per-layer metrics; the raw spans can be written as a Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span; a default-constructed (or untraced) one records nothing.
  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_{nullptr};
    std::size_t index_{0};
  };

  Tracer() : origin_(Clock::now()) {}

  /// Sum of the durations of every closed span called `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const {
    auto it = totals_ns_.find(name);
    return it == totals_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e9;
  }

  /// Chrome trace_event JSON ("X" complete events, one thread).
  bool write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& s = spans_[i];
      os << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.begin_ns / 1000
         << ",\"dur\":" << (s.end_ns - s.begin_ns) / 1000
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Rec {
    const char* name;
    long long parent;  // index of the enclosing span, -1 at top level
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  std::size_t open(const char* name) {
    spans_.push_back({name, open_, now_ns(), 0});
    open_ = static_cast<long long>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    Rec& s = spans_[index];
    s.end_ns = now_ns();
    totals_ns_[s.name] += s.end_ns - s.begin_ns;
    open_ = s.parent;
  }

  Clock::time_point origin_;
  std::vector<Rec> spans_;
  long long open_{-1};
  std::map<std::string, std::int64_t> totals_ns_;
};

}  // namespace perfbench
