// Order statistics the benchmark reports, kept free of library
// dependencies so tests/stats_test.cpp can pin them down exactly.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so in-run spreads read the same as the ones computed across runs.
inline std::array<double, 2> quartiles(std::vector<double> values) {
  const std::size_t ld = values.size();
  if (ld < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(values.begin(), values.end());
  const std::size_t m = ld + 1;
  std::array<double, 2> out{};
  for (std::size_t k = 0; k < 2; ++k) {
    const std::size_t i = k == 0 ? 1 : 3;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[k] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  }
  return out;
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (q in (0, 1]).
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto at = static_cast<std::size_t>(std::max(rank, 1.0));
  return n > at ? n - at : 0;
}

/// A percentile is reportable only with at least ten samples beyond it.
inline bool reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Highest of p50/p90/p99/p99.9 that is reportable with `n` samples, or
/// 0 when even the median has fewer than ten samples beyond it.
inline double highest_reportable_percentile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (reportable(n, q)) return q;
  }
  return 0;
}

/// The client's operation classes; latency is kept per class.
enum class OpClass : std::uint8_t { kRead, kWrite, kTick };
inline constexpr std::size_t kOpClasses = 3;

/// Per-class latency samples, in milliseconds.
class LatencyLog {
 public:
  void record(OpClass c, double ms) { samples_[index(c)].push_back(ms); }
  [[nodiscard]] std::size_t count(OpClass c) const {
    return samples_[index(c)].size();
  }
  [[nodiscard]] const std::vector<double>& samples(OpClass c) const {
    return samples_[index(c)];
  }
  /// Fewest samples in any class: the run needs every class's p99
  /// reportable, so this is what decides whether it has measured enough.
  [[nodiscard]] std::size_t min_count() const {
    std::size_t out = samples_[0].size();
    for (const auto& s : samples_) out = std::min(out, s.size());
    return out;
  }
  void merge(const LatencyLog& other) {
    for (std::size_t i = 0; i < kOpClasses; ++i) {
      samples_[i].insert(samples_[i].end(), other.samples_[i].begin(),
                         other.samples_[i].end());
    }
  }

 private:
  static std::size_t index(OpClass c) { return static_cast<std::size_t>(c); }
  std::array<std::vector<double>, kOpClasses> samples_{};
};

/// p-quantile of a log2-bucketed histogram (bucket i holds values of bit
/// width i, i.e. [2^(i-1), 2^i)), interpolated geometrically inside the
/// bucket that holds the rank-ceil(q*count) sample (its values taken as
/// spread evenly in log scale, as the buckets are) and clamped to
/// [min, max].  The library's own Histogram::percentile returns the
/// bucket's upper bound, which jumps by 2x when a distribution straddles a
/// power of two; the interpolated value moves smoothly with the data, and
/// the geometric form overshoots less than a linear one when a thin tail
/// spills just past a power of two.  `Buckets` is any indexable container
/// of std::uint64_t counts.
template <class Buckets>
double bucket_percentile(const Buckets& buckets, std::uint64_t min,
                         std::uint64_t max, double q) {
  std::uint64_t count = 0;
  for (std::uint64_t b : buckets) count += b;
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    const double lo = i <= 1 ? static_cast<double>(i)
                             : static_cast<double>(1ull << (i - 1));
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(buckets[i]);
    const double v = lo * std::exp2(frac);
    return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
  }
  return static_cast<double>(max);
}

}  // namespace perfbench
