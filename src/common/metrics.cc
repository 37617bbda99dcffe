#include "common/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

using metrics_detail::Load;
using metrics_detail::Store;

std::uint64_t MetricCounter::value() const {
  std::uint64_t total = 0;
  for (int s = 0; s < cells_.size(); ++s) total += shard_value(s);
  return total;
}

void MetricGauge::Add(std::int64_t delta) {
  const std::uint64_t cur = shard_value(0);
  // |delta| without overflow when delta == INT64_MIN.
  const std::uint64_t dec = ~static_cast<std::uint64_t>(delta) + 1;
  Set(0, delta >= 0 ? cur + static_cast<std::uint64_t>(delta)
                    : (cur > dec ? cur - dec : 0));
}

void MetricGauge::ObserveHighWater(std::uint64_t v) {
  if (v > Load(cells_[0].hwm)) Store(cells_[0].hwm, v);
}

std::uint64_t MetricGauge::Aggregate(
    std::atomic<std::uint64_t> Cell::*field) const {
  std::uint64_t agg = 0;
  for (int s = 0; s < cells_.size(); ++s) {
    const std::uint64_t v = Load(cells_[s].*field);
    agg = agg_ == GaugeAgg::kSum ? agg + v : std::max(agg, v);
  }
  return agg;
}

LogHistogram MetricHistogram::Merged() const {
  LogHistogram out;
  for (int s = 0; s < cells_.size(); ++s) out.Merge(cells_[s]);
  return out;
}

MetricsRegistry::MetricsRegistry(int num_shards) : num_shards_(num_shards) {
  NETLOCK_CHECK(num_shards_ >= 1);
}

template <typename T, typename... Args>
T& MetricsRegistry::Resolve(std::map<std::string, T>& map,
                            const std::string& full, Args... args) {
  const auto it = map.find(full);
  if (it != map.end()) return it->second;
  NETLOCK_CHECK(counters_.count(full) + gauges_.count(full) +
                    histograms_.count(full) ==
                0);
  return map.try_emplace(full, num_shards_, args...).first->second;
}

MetricCounter& MetricsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Resolve(counters_, prefix_ + name);
}

MetricGauge& MetricsRegistry::Gauge(const std::string& name, GaugeAgg agg) {
  std::lock_guard<std::mutex> lock(mu_);
  return Resolve(gauges_, prefix_ + name, agg);
}

MetricHistogram& MetricsRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Resolve(histograms_, prefix_ + name);
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size() + 2 * gauges_.size() +
                  3 * histograms_.size());
  for (const auto& [name, counter] : counters_) {
    samples.push_back(MetricSample{name, counter.value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    samples.push_back(MetricSample{name, gauge.value()});
    samples.push_back(MetricSample{name + ".hwm", gauge.high_water()});
  }
  for (const auto& [name, histogram] : histograms_) {
    const LogHistogram merged = histogram.Merged();
    samples.push_back(MetricSample{name + ".count", merged.count()});
    samples.push_back(MetricSample{name + ".p50_ns", merged.Median()});
    samples.push_back(MetricSample{name + ".p99_ns", merged.P99()});
  }
  // Each map iterates sorted, but the kinds interleave in the global name
  // order only after an explicit merge.
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other,
                                bool skip_idle) {
  // Lock ordering: the destination first, then the (quiescent) source.
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> other_lock(other.mu_);
  // Names in `other` are already fully resolved: bypass the prefix.
  for (const auto& [name, counter] : other.counters_) {
    const std::uint64_t value = counter.value();
    if (value != 0 || !skip_idle) Resolve(counters_, name).Inc(value);
  }
  for (const auto& [name, gauge] : other.gauges_) {
    MetricGauge& mine = Resolve(gauges_, name, gauge.agg());
    Store(mine.cells_[0].value, gauge.value());
    mine.ObserveHighWater(gauge.high_water());
  }
  for (const auto& [name, histogram] : other.histograms_) {
    if (skip_idle && histogram.Merged().empty()) continue;
    LogHistogram& mine = Resolve(histograms_, name).cells_[0];
    for (int s = 0; s < histogram.cells_.size(); ++s) {
      mine.Merge(histogram.cells_[s]);
    }
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int s = 0; s < num_shards_; ++s) {
    for (auto& [name, counter] : counters_) Store(counter.cells_[s], 0);
    for (auto& [name, gauge] : gauges_) {
      Store(gauge.cells_[s].value, 0);
      Store(gauge.cells_[s].hwm, 0);
    }
    for (auto& [name, histogram] : histograms_) histogram.cells_[s].Clear();
  }
}

}  // namespace netlock
