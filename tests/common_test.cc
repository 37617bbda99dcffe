// Tests for the common substrate: PRNG determinism and distributions,
// Zipf sampling, latency statistics, and time series.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/stats.h"

namespace netlock {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // Within 10% of expectation.
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(ZipfTest, UniformWhenAlphaZero) {
  ZipfSampler zipf(100, 0.0);
  Rng rng(1);
  std::vector<int> counts(100, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, n / 100, n / 200);
}

TEST(ZipfTest, SkewConcentratesOnHead) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(2);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // With alpha=1.2 the top-10 of 1000 get well over a third of the mass.
  EXPECT_GT(head, n / 3);
}

TEST(ZipfTest, RankFrequencyRatioMatchesAlpha) {
  const double alpha = 1.0;
  ZipfSampler zipf(10000, alpha);
  Rng rng(3);
  std::vector<int> counts(10000, 0);
  const int n = 2000000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  // P(rank 1) / P(rank 8) should be ~= 8^alpha.
  const double ratio =
      static_cast<double>(counts[0]) / std::max(1, counts[7]);
  EXPECT_NEAR(ratio, std::pow(8.0, alpha), 2.0);
}

TEST(ZipfTest, SingleElementAlwaysZero) {
  ZipfSampler zipf(1, 1.5);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

// Full-distribution check against the analytic pmf p(k) = (k+1)^-a / H_n(a)
// at alphas covering every code path in the sampler: the alpha == 0 uniform
// shortcut, the |1 - alpha| ~ 1 expm1 branch (0.99), the exact-log branch
// (1.0), and the generic power branch (1.2).
TEST(ZipfTest, EmpiricalPmfMatchesAnalyticAcrossAlphas) {
  constexpr std::uint64_t kRanks = 100;
  constexpr int kSamples = 200000;
  const double alphas[] = {0.0, 0.99, 1.0, 1.2};
  for (const double alpha : alphas) {
    double h = 0.0;
    for (std::uint64_t k = 0; k < kRanks; ++k) {
      h += std::pow(static_cast<double>(k + 1), -alpha);
    }
    ZipfSampler zipf(kRanks, alpha);
    Rng rng(42);
    std::vector<int> counts(kRanks, 0);
    for (int i = 0; i < kSamples; ++i) {
      const std::uint64_t s = zipf.Sample(rng);
      ASSERT_LT(s, kRanks) << "alpha=" << alpha;
      ++counts[s];
    }
    for (std::uint64_t k = 0; k < kRanks; ++k) {
      const double p = std::pow(static_cast<double>(k + 1), -alpha) / h;
      const double emp = static_cast<double>(counts[k]) / kSamples;
      // 5 sigma of the binomial sampling noise plus a small absolute floor
      // for the rejection-free approximation's bias on mid ranks.
      const double tol =
          5.0 * std::sqrt(p * (1.0 - p) / kSamples) + 0.005;
      EXPECT_NEAR(emp, p, tol) << "alpha=" << alpha << " rank=" << k;
    }
  }
}

// The sampler switches from the generic power form of H to a log form at
// alpha == 1; an alpha infinitesimally below 1 takes the expm1 path. The
// two must agree at the seam — a regression here produced wildly skewed
// draws in an earlier sampler.
TEST(ZipfTest, NearAlphaOneSeamIsContinuous) {
  constexpr std::uint64_t kRanks = 1000;
  constexpr int kSamples = 200000;
  ZipfSampler at_one(kRanks, 1.0);
  ZipfSampler near_one(kRanks, 1.0 - 1e-9);
  Rng rng_a(9), rng_b(9);
  int head_a = 0, head_b = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (at_one.Sample(rng_a) < 10) ++head_a;
    if (near_one.Sample(rng_b) < 10) ++head_b;
  }
  // Identical rng streams and (numerically) identical distributions: the
  // top-10 mass must agree to well under a percent.
  EXPECT_NEAR(static_cast<double>(head_a) / kSamples,
              static_cast<double>(head_b) / kSamples, 0.005);
}

TEST(LatencyRecorderTest, ExactPercentiles) {
  LatencyRecorder rec;
  for (SimTime v = 1; v <= 100; ++v) rec.Record(v);
  EXPECT_EQ(rec.Median(), 50u);
  EXPECT_EQ(rec.P99(), 99u);
  EXPECT_EQ(rec.Percentile(1.0), 100u);
  EXPECT_EQ(rec.Min(), 1u);
  EXPECT_EQ(rec.Max(), 100u);
  EXPECT_DOUBLE_EQ(rec.Mean(), 50.5);
}

TEST(LatencyRecorderTest, EmptyIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Median(), 0u);
  EXPECT_EQ(rec.Mean(), 0.0);
  EXPECT_TRUE(rec.Cdf().empty());
}

TEST(LatencyRecorderTest, RecordAfterQueryResorts) {
  LatencyRecorder rec;
  rec.Record(10);
  EXPECT_EQ(rec.Median(), 10u);
  rec.Record(5);
  rec.Record(1);
  EXPECT_EQ(rec.Median(), 5u);
}

TEST(LatencyRecorderTest, MergeCombinesSamples) {
  LatencyRecorder a, b;
  a.Record(1);
  b.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.Max(), 3u);
}

TEST(LatencyRecorderTest, CdfIsMonotone) {
  LatencyRecorder rec;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) rec.Record(rng.NextBounded(10000));
  const auto cdf = rec.Cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(RunMetricsTest, ThroughputComputation) {
  RunMetrics m;
  m.lock_grants = 1'000'000;
  m.txn_commits = 100'000;
  m.duration = kSecond;
  EXPECT_DOUBLE_EQ(m.LockThroughputMrps(), 1.0);
  EXPECT_DOUBLE_EQ(m.TxnThroughputMtps(), 0.1);
}

TEST(FormatNanosTest, Units) {
  EXPECT_EQ(FormatNanos(500), "500ns");
  EXPECT_EQ(FormatNanos(1500), "1.5us");
  EXPECT_EQ(FormatNanos(2 * kMillisecond), "2.00ms");
  EXPECT_EQ(FormatNanos(3 * kSecond), "3.00s");
}

}  // namespace
}  // namespace netlock
