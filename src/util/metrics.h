// Named monotonic counters, gauges, and log2 histograms.
//
// Every subsystem reports into one registry (messages sent per kind, CDMs
// issued, scions cut, objects reclaimed, detections aborted by the race
// barrier, ...).  The benchmark harness reads the registry to print the
// paper's tables; tests and the health auditor use it to check protocol
// accounting (e.g. CDMs the detectors issued against CDMs the network sent).
//
// Hot paths use *pre-registered handles* (Counter / Gauge) resolved once at
// construction time; incrementing through a handle is a single pointer
// dereference.  The string API (`add`/`get`) remains as a compatibility
// shim for cold paths and tests — both views share the same storage, so a
// handle and the string lookup always agree.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rgc::util {

/// Pre-registered counter handle: one pointer dereference per increment.
/// Obtained from Metrics::counter(); stays valid for the Metrics' lifetime
/// (reset() zeroes values but never erases slots).
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t delta = 1) noexcept {
    if (slot_ != nullptr) *slot_ += delta;
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return slot_ == nullptr ? 0 : *slot_;
  }
  [[nodiscard]] bool valid() const noexcept { return slot_ != nullptr; }

 private:
  friend class Metrics;
  explicit Counter(std::uint64_t* slot) noexcept : slot_(slot) {}
  std::uint64_t* slot_{nullptr};
};

/// Pre-registered last-value gauge handle (e.g. net.queue_depth).
class Gauge {
 public:
  Gauge() = default;
  void set(std::uint64_t value) noexcept {
    if (slot_ != nullptr) *slot_ = value;
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return slot_ == nullptr ? 0 : *slot_;
  }

 private:
  friend class Metrics;
  explicit Gauge(std::uint64_t* slot) noexcept : slot_(slot) {}
  std::uint64_t* slot_{nullptr};
};

/// Power-of-two bucketed distribution (bucket i counts values whose bit
/// width is i, i.e. [2^(i-1), 2^i)), plus exact count/sum/min/max.  Cheap
/// enough to record on protocol hot paths: one bit-width + five stores.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 33;  // values up to 2^32 exact

  void record(std::uint64_t value) noexcept {
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (value > max_) max_ = value;
    const std::size_t b = static_cast<std::size_t>(std::bit_width(value));
    ++buckets_[b < kBuckets ? b : kBuckets - 1];
  }

  void merge(const Histogram& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  void reset() noexcept {
    count_ = sum_ = min_ = max_ = 0;
    buckets_.fill(0);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }
  /// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t i) noexcept {
    return i <= 1 ? i : 1ull << (i - 1);
  }

  /// Quantile estimate from the log2 buckets: upper bound of the bucket
  /// holding the rank-`ceil(q*count)` sample, clamped to [min, max].  Exact
  /// for distributions narrower than one bucket; within 2x otherwise —
  /// plenty for SLO-style p50/p90/p99 readouts.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  /// "count=5 min=1 max=9 mean=4.20 p50=4 p90=8 p99=9" — report rendering.
  [[nodiscard]] std::string to_string() const;

 private:
  std::uint64_t count_{0};
  std::uint64_t sum_{0};
  std::uint64_t min_{0};
  std::uint64_t max_{0};
  std::array<std::uint64_t, kBuckets> buckets_{};
};

class Metrics {
 public:
  /// Adds delta to the named counter, creating it at zero if absent.
  /// Compatibility shim: cold paths only — hot paths use counter().
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Current value; zero when the counter was never touched.
  [[nodiscard]] std::uint64_t get(const std::string& name) const;

  /// Pre-registers (or finds) the named counter and returns a stable
  /// handle.  Map nodes never move, so the handle survives any number of
  /// later registrations and reset() calls.
  [[nodiscard]] Counter counter(const std::string& name);

  /// Pre-registers (or finds) the named gauge.
  [[nodiscard]] Gauge gauge(const std::string& name);
  [[nodiscard]] std::uint64_t gauge_value(const std::string& name) const;

  /// Named histogram; the reference is stable for the Metrics' lifetime.
  [[nodiscard]] Histogram& histogram(const std::string& name);
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Resets every counter/gauge/histogram to zero but keeps them
  /// registered (handles stay valid).
  void reset();

  /// Stable (name, value) listing for reports.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> gauge_snapshot() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>> histogram_snapshot() const;

  /// Prometheus text exposition (v0.0.4) of this registry: counters as
  /// `counter`, gauges as `gauge`, histograms as cumulative-`le` bucket
  /// families with `_sum`/`_count`.  Names are mangled to
  /// `rgc_<name with non-alnum -> '_'>`; `labels` (e.g. `process="P0"`) is
  /// spliced verbatim into every sample's label set.
  void to_prometheus(std::ostream& os, std::string_view labels = {}) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), or 0 where unavailable.  A host-OS measurement, so —
/// like wall-clock timers — it belongs only in nondeterministic registries
/// (core::Cluster::profile()), never in deterministic reports.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Extracts the VmHWM value (in KiB) from one line of /proc/self/status
/// content.  Returns 0 for a missing field, malformed number, wrong unit or
/// a value that would overflow when scaled to bytes — peak_rss_bytes then
/// degrades to 0 instead of reporting garbage on non-Linux /proc layouts.
[[nodiscard]] std::uint64_t parse_vmhwm_kib(std::string_view status_line);

/// Records elapsed wall-clock microseconds into a histogram on destruction;
/// no-op when constructed with nullptr.  Wall times are nondeterministic by
/// nature, so profiling histograms must live in registries excluded from
/// deterministic reports (see core::Cluster::profile()).
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram* hist) noexcept : hist_(hist) {
    if (hist_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimerUs() {
    if (hist_ == nullptr) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0_);
    hist_->record(static_cast<std::uint64_t>(us.count()));
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace rgc::util
