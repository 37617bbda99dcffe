// Measurement primitives for the evaluation harness: exact latency
// distributions and per-run throughput counters. Throughput over time is
// kept by TimeSeriesStore (common/timeseries.h).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"

namespace netlock {

/// Records individual latency samples (nanoseconds) and reports exact
/// order statistics. Samples are kept in full: even multi-second experiments
/// in this simulator produce at most a few million samples, and the paper's
/// figures need exact 99% / 99.9% tails. They are stored in fixed-size
/// blocks (a deque), so memory grows with the sample count in small steps:
/// a doubling vector would copy the whole set at each power of two and make
/// a run's peak memory jump when its count happens to cross one.
class LatencyRecorder {
 public:
  // Resetting sorted_ here is load-bearing: the time-sliced policy and
  // failure benches interleave Record and Percentile, and a stale flag
  // would make Percentile read a mis-sorted tail.
  void Record(SimTime nanos) {
    samples_.push_back(nanos);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Arithmetic mean in nanoseconds (0 when empty).
  double Mean() const;

  /// Exact p-quantile (0 <= p <= 1) using nearest-rank; 0 when empty.
  SimTime Percentile(double p) const;

  SimTime Median() const { return Percentile(0.50); }
  SimTime P99() const { return Percentile(0.99); }
  SimTime P999() const { return Percentile(0.999); }
  SimTime Max() const;
  SimTime Min() const;

  /// Empirical CDF evaluated at evenly spaced probabilities; used for the
  /// Figure 13(b) latency CDF. Returns (latency_ns, cumulative_prob) pairs.
  std::vector<std::pair<SimTime, double>> Cdf(std::size_t points = 100) const;

  void Clear() { samples_.clear(); sorted_ = false; }

  /// Merge another recorder's samples into this one.
  void Merge(const LatencyRecorder& other);

 private:
  void EnsureSorted() const;

  mutable std::deque<SimTime> samples_;
  mutable bool sorted_ = false;
};

/// Throughput/latency summary for one experiment run of one system.
struct RunMetrics {
  std::uint64_t lock_grants = 0;       ///< Lock requests granted.
  std::uint64_t lock_requests = 0;     ///< Lock requests issued.
  std::uint64_t retries = 0;           ///< Client-side retries (decentralized).
  std::uint64_t txn_commits = 0;       ///< Transactions completed.
  std::uint64_t switch_grants = 0;     ///< Grants served by the switch.
  std::uint64_t server_grants = 0;     ///< Grants served by lock servers.
  SimTime duration = 0;                ///< Measured interval.
  LatencyRecorder lock_latency;        ///< Acquire -> grant latency.
  LatencyRecorder txn_latency;         ///< Transaction begin -> commit.

  double LockThroughputMrps() const;
  double TxnThroughputMtps() const;
};

/// Formats nanoseconds as a human-readable string ("8.1us", "1.2ms").
std::string FormatNanos(SimTime nanos);

}  // namespace netlock
