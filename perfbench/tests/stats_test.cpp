// Self-tests for the statistics the benchmark reports.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Expected values from Python: statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 8.25);
  const auto q3 = quartiles({5, 1, 3});
  EXPECT_DOUBLE_EQ(q3[0], 1);
  EXPECT_DOUBLE_EQ(q3[1], 5);
  const auto q2 = quartiles({10, 20});
  EXPECT_DOUBLE_EQ(q2[0], 7.5);
  EXPECT_DOUBLE_EQ(q2[1], 22.5);
  EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100);
  EXPECT_DOUBLE_EQ(percentile({5}, 0.99), 5);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(reportable(1000, 0.99));
  EXPECT_FALSE(reportable(999, 0.99));
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  EXPECT_DOUBLE_EQ(highest_reportable_percentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(highest_reportable_percentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(highest_reportable_percentile(999), 0.9);
  EXPECT_DOUBLE_EQ(highest_reportable_percentile(20), 0.5);
  EXPECT_DOUBLE_EQ(highest_reportable_percentile(19), 0);
}

TEST(LatencyLog, CountsSamplesPerClass) {
  LatencyLog log;
  log.record(OpClass::kRead, 1.0);
  log.record(OpClass::kRead, 2.0);
  log.record(OpClass::kWrite, 3.0);
  EXPECT_EQ(log.count(OpClass::kRead), 2u);
  EXPECT_EQ(log.count(OpClass::kWrite), 1u);
  EXPECT_EQ(log.count(OpClass::kTick), 0u);
  EXPECT_EQ(log.min_count(), 0u);

  LatencyLog other;
  other.record(OpClass::kTick, 4.0);
  other.record(OpClass::kWrite, 5.0);
  log.merge(other);
  EXPECT_EQ(log.count(OpClass::kWrite), 2u);
  EXPECT_EQ(log.min_count(), 1u);
  EXPECT_EQ(log.samples(OpClass::kWrite), (std::vector<double>{3.0, 5.0}));
}

TEST(BucketPercentile, InterpolatesInsideTheBucket) {
  // 100 samples in bucket 7 ([64, 128)): p50 lies halfway through it in
  // log scale, at 64 * 2^0.5.
  std::array<std::uint64_t, 33> b{};
  b[7] = 100;
  EXPECT_DOUBLE_EQ(bucket_percentile(b, 64, 127, 0.5), 64 * std::sqrt(2.0));
  // Clamped to the observed max.
  EXPECT_DOUBLE_EQ(bucket_percentile(b, 64, 100, 0.99), 100);
  // The rank walks across buckets: 90 zeros, 10 in [4, 8).
  std::array<std::uint64_t, 33> c{};
  c[0] = 90;
  c[3] = 10;
  EXPECT_DOUBLE_EQ(bucket_percentile(c, 0, 7, 0.5), 0);
  EXPECT_DOUBLE_EQ(bucket_percentile(c, 0, 7, 0.95), 4 * std::sqrt(2.0));
  std::array<std::uint64_t, 33> empty{};
  EXPECT_DOUBLE_EQ(bucket_percentile(empty, 0, 0, 0.99), 0);
}

TEST(BucketPercentile, PooledVectorOfCounts) {
  // Two input sets' histograms summed: 50 + 50 samples in [64, 128).
  std::vector<std::uint64_t> pooled(33, 0);
  for (std::uint64_t per_set : {50u, 50u}) pooled[7] += per_set;
  EXPECT_DOUBLE_EQ(bucket_percentile(pooled, 64, 127, 0.5), 64 * std::sqrt(2.0));
}

}  // namespace
}  // namespace perfbench
