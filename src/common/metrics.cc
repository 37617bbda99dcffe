#include "common/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

MetricCounter& MetricsRegistry::Counter(const std::string& name) {
  const std::string full = prefix_.empty() ? name : prefix_ + name;
  std::lock_guard<std::mutex> lock(mu_);
  NETLOCK_CHECK(gauges_.find(full) == gauges_.end());
  return counters_[full];
}

MetricGauge& MetricsRegistry::Gauge(const std::string& name) {
  const std::string full = prefix_.empty() ? name : prefix_ + name;
  std::lock_guard<std::mutex> lock(mu_);
  NETLOCK_CHECK(counters_.find(full) == counters_.end());
  return gauges_[full];
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size() + 2 * gauges_.size());
  for (const auto& [name, counter] : counters_) {
    samples.push_back(MetricSample{name, counter.value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    samples.push_back(MetricSample{name, gauge.value()});
    samples.push_back(MetricSample{name + ".hwm", gauge.high_water()});
  }
  // Each map iterates sorted, but counters and gauges interleave in the
  // global name order only after an explicit merge.
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Lock ordering: the destination first, then the (quiescent) source.
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> other_lock(other.mu_);
  // Names in `other` are already fully resolved: bypass the prefix.
  for (const auto& [name, counter] : other.counters_) {
    NETLOCK_CHECK(gauges_.find(name) == gauges_.end());
    counters_[name].Inc(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    NETLOCK_CHECK(counters_.find(name) == counters_.end());
    MetricGauge& mine = gauges_[name];
    mine.value_.store(gauge.value(), std::memory_order_relaxed);
    mine.ObserveHighWater(gauge.high_water());
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter.value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, gauge] : gauges_) {
    gauge.value_.store(0, std::memory_order_relaxed);
    gauge.high_water_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace netlock
