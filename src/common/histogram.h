// Memory-bounded latency histogram with logarithmic buckets.
//
// LatencyRecorder stores every sample for exact order statistics, which is
// right for the paper's figures but grows with run length. LogHistogram
// gives HDR-style bounded-error quantiles in constant memory (~10 KB):
// buckets are spaced so that every recorded value is within
// `1 / kSubBuckets` relative error of its bucket midpoint — ample for
// latency reporting, where 1% resolution outclasses measurement noise.
//
// Every cell is a relaxed single-writer atomic: the one thread that records
// into (or merges into, or clears) a histogram updates each cell with a
// relaxed load + relaxed store, no atomic RMW and no fence, so recording
// costs what a plain increment does. Any other thread may read it
// concurrently through Merge (or a copy, which is a Merge into an empty
// histogram): that is how a sharded MetricsRegistry aggregates its
// per-worker shards while the workers keep recording. TSan-clean.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <type_traits>

#include "common/types.h"

namespace netlock {

class LogHistogram {
 public:
  /// Sub-buckets per power of two: relative quantile error <= 1/64 ~ 1.6%.
  static constexpr std::uint32_t kSubBuckets = 64;
  /// Covers [0, 2^40) ns ~ 18 minutes, far beyond any simulated latency.
  static constexpr std::uint32_t kMaxExponent = 40;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExponent) * kSubBuckets + kSubBuckets;

  LogHistogram() = default;
  /// A copy is a snapshot taken the way Merge reads, so `other` may be
  /// recording concurrently.
  LogHistogram(const LogHistogram& other) { Merge(other); }

  void Record(SimTime nanos);

  std::uint64_t count() const { return Read(count_); }
  bool empty() const { return count() == 0; }

  /// Approximate p-quantile (0 <= p <= 1); relative error <= ~1.6%.
  SimTime Percentile(double p) const;

  SimTime Median() const { return Percentile(0.50); }
  SimTime P99() const { return Percentile(0.99); }

  /// Exact arithmetic mean (tracked separately from the buckets).
  double Mean() const;

  SimTime Min() const { return empty() ? 0 : Read(min_); }
  SimTime Max() const { return empty() ? 0 : Read(max_); }

  /// Adds `other`'s samples. The added count is the sum of the bucket reads
  /// (not other's count cell), so a merge that races other's writer is
  /// still consistent with itself; it is exact once that writer quiesces.
  void Merge(const LogHistogram& other);

  void Clear();

  // Exposed for tests: the bucketing must be monotone in `value`, and every
  // bucket's midpoint must lie within that bucket's bounds.
  static std::uint32_t BucketFor(SimTime value);
  static SimTime BucketMidpoint(std::uint32_t bucket);

 private:
  template <typename T>
  static T Read(const std::atomic<T>& cell) {
    return cell.load(std::memory_order_relaxed);
  }
  /// The single writer's update: callers Read, compute and Set, never an
  /// atomic read-modify-write.
  template <typename T>
  static void Set(std::atomic<T>& cell, std::type_identity_t<T> value) {
    cell.store(value, std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint32_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<SimTime> min_{~SimTime{0}};
  std::atomic<SimTime> max_{0};
};

}  // namespace netlock
