// Unit tests: ids, FlatSet algebra, deterministic RNG, metrics.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/flat_set.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace rgc {
namespace {

using util::FlatSet;

TEST(Ids, ReplicaOrderingAndEquality) {
  const Replica a{ObjectId{1}, ProcessId{0}};
  const Replica b{ObjectId{1}, ProcessId{1}};
  const Replica c{ObjectId{2}, ProcessId{0}};
  EXPECT_EQ(a, (Replica{ObjectId{1}, ProcessId{0}}));
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(Ids, ToStringFormats) {
  EXPECT_EQ(to_string(ProcessId{3}), "P3");
  EXPECT_EQ(to_string(ObjectId{7}), "o7");
  EXPECT_EQ(to_string(Replica{ObjectId{7}, ProcessId{3}}), "o7@P3");
}

TEST(Ids, HashDistinguishesReplicas) {
  const std::hash<Replica> h;
  EXPECT_NE(h(Replica{ObjectId{1}, ProcessId{0}}),
            h(Replica{ObjectId{0}, ProcessId{1}}));
}

TEST(FlatSetTest, InsertDeduplicatesAndSorts) {
  FlatSet<int> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(1));
  EXPECT_FALSE(s.insert(3));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.items(), (std::vector<int>{1, 3}));
}

TEST(FlatSetTest, InitializerListNormalizes) {
  const FlatSet<int> s{5, 1, 5, 3, 1};
  EXPECT_EQ(s.items(), (std::vector<int>{1, 3, 5}));
}

TEST(FlatSetTest, ContainsAndErase) {
  FlatSet<int> s{1, 2, 3};
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.erase(2));
  EXPECT_FALSE(s.contains(2));
  EXPECT_FALSE(s.erase(2));
}

TEST(FlatSetTest, FromSortedUniqueAdoptsVector) {
  const FlatSet<int> s = FlatSet<int>::from_sorted_unique({1, 4, 9});
  EXPECT_EQ(s.items(), (std::vector<int>{1, 4, 9}));
  EXPECT_TRUE(s.contains(4));
  EXPECT_EQ(FlatSet<int>::from_sorted_unique({}).size(), 0u);
  // Adopted sets behave exactly like incrementally built ones.
  EXPECT_EQ(s, (FlatSet<int>{9, 1, 4}));
}

TEST(FlatSetTest, MergeIsUnion) {
  FlatSet<int> a{1, 3};
  const FlatSet<int> b{2, 3, 4};
  a.merge(b);
  EXPECT_EQ(a.items(), (std::vector<int>{1, 2, 3, 4}));
}

TEST(FlatSetTest, DifferenceAndIntersection) {
  const FlatSet<int> a{1, 2, 3, 4};
  const FlatSet<int> b{2, 4, 5};
  EXPECT_EQ(a.difference(b).items(), (std::vector<int>{1, 3}));
  EXPECT_EQ(a.intersect(b).items(), (std::vector<int>{2, 4}));
}

TEST(FlatSetTest, SubsetOf) {
  const FlatSet<int> a{1, 3};
  const FlatSet<int> b{1, 2, 3};
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(FlatSet<int>{}.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
}

TEST(FlatSetTest, EmptyDifferenceMeansSubset) {
  const FlatSet<int> deps{1, 2};
  const FlatSet<int> targets{1, 2, 9};
  EXPECT_TRUE(deps.difference(targets).empty());
}

TEST(Rng, DeterministicPerSeed) {
  util::Rng a{123};
  util::Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a{1};
  util::Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  util::Rng r{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversRange) {
  util::Rng r{9};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  util::Rng r{11};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  util::Rng r{13};
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  util::Rng r{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  util::Rng parent{21};
  util::Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 4);
}

TEST(Metrics, AddAndGet) {
  util::Metrics m;
  EXPECT_EQ(m.get("x"), 0u);
  m.counter("x").inc();
  m.counter("x").inc(4);
  EXPECT_EQ(m.get("x"), 5u);
}

TEST(Metrics, ResetKeepsNames) {
  util::Metrics m;
  m.counter("a").inc(2);
  m.reset();
  EXPECT_EQ(m.get("a"), 0u);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "a");
}

TEST(Metrics, SnapshotSortedByName) {
  util::Metrics m;
  m.counter("zeta").inc();
  m.counter("alpha").inc(3);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "alpha");
  EXPECT_EQ(snap[0].second, 3u);
  EXPECT_EQ(snap[1].first, "zeta");
}

TEST(HistogramPercentile, EmptyHistogramIsAllZero) {
  util::Histogram h;
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(0.99), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(HistogramPercentile, SingleValueCollapsesEveryQuantile) {
  util::Histogram h;
  h.record(42);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), 42u) << "q=" << q;
  }
}

TEST(HistogramPercentile, SingleBucketClampsToObservedRange) {
  // 100..127 all land in the [64, 127] bucket; the estimate is the bucket's
  // upper bound clamped into [min, max], so every quantile stays within
  // what was actually observed.
  util::Histogram h;
  for (std::uint64_t v = 100; v <= 120; ++v) h.record(v);
  EXPECT_EQ(h.percentile(0.0), 100u);
  EXPECT_GE(h.percentile(0.5), 100u);
  EXPECT_LE(h.percentile(0.5), 120u);
  EXPECT_EQ(h.percentile(0.99), 120u);  // bucket hi 127 clamps to max
  EXPECT_EQ(h.percentile(1.0), 120u);
}

TEST(HistogramPercentile, QuantilesOutsideUnitIntervalClampToMinMax) {
  util::Histogram h;
  h.record(3);
  h.record(900);
  EXPECT_EQ(h.percentile(-0.5), 3u);
  EXPECT_EQ(h.percentile(1.5), 900u);
}

TEST(HistogramPercentile, P99AtSaturationBucketStaysInObservedRange) {
  // Values beyond 2^32 saturate into the last bucket, whose nominal upper
  // bound (2^32 - 1) lies *below* every recorded value; the estimate must
  // clamp into [min, max] rather than report the absurd bucket bound.
  util::Histogram h;
  const std::uint64_t huge = 1ull << 40;
  for (int i = 0; i < 100; ++i) h.record(huge + static_cast<std::uint64_t>(i));
  EXPECT_GE(h.percentile(0.99), huge);
  EXPECT_LE(h.percentile(0.99), huge + 99);
  EXPECT_GE(h.percentile(0.5), huge);
  EXPECT_LE(h.percentile(0.5), huge + 99);
  EXPECT_EQ(h.percentile(1.0), huge + 99);  // q >= 1 is exactly max
  EXPECT_EQ(h.min(), huge);
  EXPECT_EQ(h.max(), huge + 99);
}

TEST(HistogramPercentile, RankFallsInTheRightBucket) {
  // 90 small values + 10 large: p50 must come from the small bucket,
  // p99 from the large one.
  util::Histogram h;
  for (int i = 0; i < 90; ++i) h.record(2);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_LE(h.percentile(0.5), 3u);
  EXPECT_GE(h.percentile(0.95), 1000u);
  EXPECT_LE(h.percentile(0.95), 1023u);
}

}  // namespace
}  // namespace rgc
