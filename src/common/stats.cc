#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/check.h"

namespace netlock {

void LatencyRecorder::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyRecorder::Mean() const {
  if (samples_.empty()) return 0.0;
  const long double sum =
      std::accumulate(samples_.begin(), samples_.end(), 0.0L);
  return static_cast<double>(sum / samples_.size());
}

SimTime LatencyRecorder::Percentile(double p) const {
  if (samples_.empty()) return 0;
  NETLOCK_CHECK(p >= 0.0 && p <= 1.0);
  EnsureSorted();
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

SimTime LatencyRecorder::Max() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return samples_.back();
}

SimTime LatencyRecorder::Min() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return samples_.front();
}

std::vector<std::pair<SimTime, double>> LatencyRecorder::Cdf(
    std::size_t points) const {
  std::vector<std::pair<SimTime, double>> cdf;
  if (samples_.empty() || points == 0) return cdf;
  EnsureSorted();
  cdf.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(points);
    cdf.emplace_back(Percentile(p), p);
  }
  return cdf;
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  if (&other == this) {  // Self-merge would invalidate source iterators.
    const std::size_t n = samples_.size();
    for (std::size_t i = 0; i < n; ++i) samples_.push_back(samples_[i]);
    sorted_ = false;
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

double RunMetrics::LockThroughputMrps() const {
  if (duration == 0) return 0.0;
  return static_cast<double>(lock_grants) /
         (static_cast<double>(duration) / kSecond) / 1e6;
}

double RunMetrics::TxnThroughputMtps() const {
  if (duration == 0) return 0.0;
  return static_cast<double>(txn_commits) /
         (static_cast<double>(duration) / kSecond) / 1e6;
}

std::string FormatNanos(SimTime nanos) {
  char buf[32];
  if (nanos >= kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2fs",
                  static_cast<double>(nanos) / kSecond);
  } else if (nanos >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.2fms",
                  static_cast<double>(nanos) / kMillisecond);
  } else if (nanos >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.1fus",
                  static_cast<double>(nanos) / kMicrosecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(nanos));
  }
  return buf;
}

}  // namespace netlock
