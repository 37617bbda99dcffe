// Tests for the memory-bounded log-bucket histogram: bounded relative
// error against the exact recorder, range tracking, merge, edge cases, and
// merging while the owner thread records.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/histogram.h"
#include "common/random.h"
#include "common/stats.h"

namespace netlock {
namespace {

TEST(LogHistogramTest, EmptyIsZero) {
  LogHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.Percentile(0.5), 0u);
  EXPECT_EQ(hist.Mean(), 0.0);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 0u);
}

TEST(LogHistogramTest, SmallValuesExact) {
  LogHistogram hist;
  for (SimTime v = 0; v < 64; ++v) hist.Record(v);
  // Values below kSubBuckets land in unit buckets: exact quantiles.
  EXPECT_EQ(hist.Percentile(0.0), 0u);
  EXPECT_EQ(hist.Median(), 31u);
  EXPECT_EQ(hist.Percentile(1.0), 63u);
}

TEST(LogHistogramTest, MeanIsExact) {
  LogHistogram hist;
  hist.Record(1000);
  hist.Record(3000);
  EXPECT_DOUBLE_EQ(hist.Mean(), 2000.0);
}

TEST(LogHistogramTest, MinMaxTracked) {
  LogHistogram hist;
  hist.Record(123);
  hist.Record(4'567'890);
  EXPECT_EQ(hist.Min(), 123u);
  EXPECT_EQ(hist.Max(), 4'567'890u);
}

TEST(LogHistogramTest, QuantilesWithinRelativeErrorOfExact) {
  LogHistogram hist;
  LatencyRecorder exact;
  Rng rng(99);
  // Latency-shaped distribution: exponential around 8 us plus a heavy tail.
  for (int i = 0; i < 200'000; ++i) {
    SimTime v = static_cast<SimTime>(rng.NextExponential(8000.0));
    if (rng.NextBool(0.01)) v += rng.NextBounded(2'000'000);
    hist.Record(v);
    exact.Record(v);
  }
  for (const double p : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double approx = static_cast<double>(hist.Percentile(p));
    const double truth = static_cast<double>(exact.Percentile(p));
    EXPECT_NEAR(approx, truth, truth * 0.03 + 2.0) << "p=" << p;
  }
  EXPECT_NEAR(hist.Mean(), exact.Mean(), exact.Mean() * 0.001);
}

TEST(LogHistogramTest, MergeEquivalentToCombinedRecording) {
  LogHistogram a, b, combined;
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const SimTime v = rng.NextBounded(1'000'000);
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  for (const double p : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << p;
  }
  EXPECT_EQ(a.Min(), combined.Min());
  EXPECT_EQ(a.Max(), combined.Max());
}

TEST(LogHistogramTest, CopyIsASnapshot) {
  LogHistogram hist;
  for (SimTime v : {3, 700, 70'000}) hist.Record(v);
  LogHistogram copy(hist);
  hist.Record(9);
  EXPECT_EQ(copy.count(), 3u);
  EXPECT_EQ(copy.Min(), 3u);
  EXPECT_EQ(copy.Max(), 70'000u);
  EXPECT_DOUBLE_EQ(copy.Mean(), 70'703.0 / 3);
}

// The telemetry domains' contract: one thread records into a histogram
// while another merges it. Run under TSan in CI; every racing snapshot must
// be consistent with itself (count == sum of its buckets, so Percentile(1)
// is an observed value), and the final merge is exact.
TEST(LogHistogramTest, MergeWhileOwnerRecords) {
  constexpr std::uint64_t kSamples = 50'000;
  LogHistogram hist;
  hist.Record(100);  // Min and max are set before any racing read.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kSamples; ++i) hist.Record(100 + i % 1000);
    done.store(true, std::memory_order_release);
  });
  std::uint64_t last = 0;
  while (!done.load(std::memory_order_acquire)) {
    LogHistogram snapshot;
    snapshot.Merge(hist);
    EXPECT_GE(snapshot.count(), last);  // Cells only grow.
    last = snapshot.count();
    if (!snapshot.empty()) {
      EXPECT_GE(snapshot.Percentile(1.0), 100u);
      EXPECT_LE(snapshot.Percentile(1.0), 1099u);
    }
  }
  writer.join();
  LogHistogram merged;
  merged.Merge(hist);
  EXPECT_EQ(merged.count(), kSamples + 1);
  EXPECT_EQ(merged.Min(), 100u);
  EXPECT_EQ(merged.Max(), 1099u);
  EXPECT_DOUBLE_EQ(merged.Mean(), hist.Mean());
}

TEST(LogHistogramTest, ClearResets) {
  LogHistogram hist;
  hist.Record(42);
  hist.Clear();
  EXPECT_TRUE(hist.empty());
  hist.Record(7);
  EXPECT_EQ(hist.Median(), 7u);
}

TEST(LogHistogramTest, HugeOutliersClampNotCrash) {
  LogHistogram hist;
  hist.Record(~SimTime{0});  // Beyond the covered range.
  hist.Record(100);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.Max(), ~SimTime{0});
  // The quantile is clamped to the observed range.
  EXPECT_LE(hist.Percentile(1.0), ~SimTime{0});
}

TEST(LogHistogramTest, BucketForIsMonotone) {
  // Regression: outliers past kMaxExponent used to keep mantissa bits from
  // the unclamped shift, so a larger value could land in a *smaller* bucket
  // near the clamp, distorting tail percentiles. Walk a dense set of values
  // spanning the clamp boundary and require a non-decreasing bucket index.
  std::uint32_t prev = 0;
  bool first = true;
  for (int exp = 0; exp <= 63; ++exp) {
    const SimTime base = SimTime{1} << exp;
    for (SimTime off : {SimTime{0}, base / 4, base / 2, base - 1}) {
      const SimTime v = base + off;
      if (v < base) continue;  // Overflow at exp==63.
      const std::uint32_t bucket = LogHistogram::BucketFor(v);
      if (!first) {
        EXPECT_GE(bucket, prev) << "value=" << v;
      }
      prev = bucket;
      first = false;
    }
  }
  // The clamp saturates: everything past the range shares the top bucket.
  constexpr std::uint32_t kTop =
      LogHistogram::kMaxExponent * LogHistogram::kSubBuckets +
      (LogHistogram::kSubBuckets - 1);
  EXPECT_EQ(LogHistogram::BucketFor(SimTime{1} << 41), kTop);
  EXPECT_EQ(LogHistogram::BucketFor(~SimTime{0}), kTop);
}

TEST(LogHistogramTest, BucketMidpointWithinBucketBounds) {
  // Every reachable bucket's midpoint must map back to that same bucket —
  // i.e. the midpoint lies within the bucket's own bounds. (Buckets for
  // exponents 1..5 are unreachable: values below kSubBuckets use the unit
  // buckets instead, so BucketFor never produces them and Percentile never
  // visits them.)
  constexpr std::uint32_t kLast =
      (LogHistogram::kMaxExponent + 1) * LogHistogram::kSubBuckets - 1;
  for (std::uint32_t bucket = 0; bucket <= kLast; ++bucket) {
    const std::uint32_t exponent = bucket / LogHistogram::kSubBuckets;
    if (exponent >= 1 && exponent < 6) continue;  // Unreachable range.
    const SimTime mid = LogHistogram::BucketMidpoint(bucket);
    EXPECT_EQ(LogHistogram::BucketFor(mid), bucket) << "bucket=" << bucket;
  }
}

TEST(LogHistogramTest, OutlierDoesNotShrinkTailPercentile) {
  // Pre-fix, ~0ULL landed in a mid-range bucket *below* legitimate large
  // samples, dragging p100 under the true maximum region.
  LogHistogram hist;
  const SimTime big = (SimTime{1} << 40) - 1;  // In-range large sample.
  for (int i = 0; i < 100; ++i) hist.Record(1000);
  hist.Record(big);
  hist.Record(~SimTime{0});  // Outlier: must sort above `big`.
  EXPECT_GE(LogHistogram::BucketFor(~SimTime{0}),
            LogHistogram::BucketFor(big));
}

}  // namespace
}  // namespace netlock
