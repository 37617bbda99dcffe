#include "common/telemetry.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

TelemetryDomain::TelemetryDomain(int num_shards) {
  NETLOCK_CHECK(num_shards >= 1);
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TelemetryCounter TelemetryDomain::RegisterCounter(std::string name) {
  TelemetryCounter c;
  c.slot = static_cast<std::uint32_t>(counter_names_.size());
  counter_names_.push_back(std::move(name));
  published_counters_.push_back(0);
  for (auto& shard : shards_) shard->counters.emplace_back(0);
  return c;
}

TelemetryGauge TelemetryDomain::RegisterGauge(std::string name, GaugeAgg agg) {
  TelemetryGauge g;
  g.slot = static_cast<std::uint32_t>(gauge_names_.size());
  gauge_names_.push_back(std::move(name));
  gauge_aggs_.push_back(agg);
  for (auto& shard : shards_) shard->gauges.emplace_back();
  return g;
}

TelemetryHistogram TelemetryDomain::RegisterHistogram(std::string name) {
  TelemetryHistogram h;
  h.slot = static_cast<std::uint32_t>(hist_names_.size());
  hist_names_.push_back(std::move(name));
  published_hist_counts_.push_back(0);
  for (auto& shard : shards_) shard->hists.emplace_back();
  return h;
}

namespace {

bool FindSlot(const std::vector<std::string>& names, const std::string& name,
              std::uint32_t* slot) {
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      *slot = i;
      return true;
    }
  }
  return false;
}

}  // namespace

bool TelemetryDomain::FindCounter(const std::string& name,
                                  TelemetryCounter* out) const {
  return FindSlot(counter_names_, name, &out->slot);
}

bool TelemetryDomain::FindGauge(const std::string& name,
                                TelemetryGauge* out) const {
  return FindSlot(gauge_names_, name, &out->slot);
}

bool TelemetryDomain::FindHistogram(const std::string& name,
                                    TelemetryHistogram* out) const {
  return FindSlot(hist_names_, name, &out->slot);
}

std::uint64_t TelemetryDomain::CounterTotal(TelemetryCounter c) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->counters[c.slot].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TelemetryDomain::GaugeTotal(TelemetryGauge g) const {
  std::uint64_t agg = 0;
  const bool sum = gauge_aggs_[g.slot] == GaugeAgg::kSum;
  for (const auto& shard : shards_) {
    const std::uint64_t v =
        shard->gauges[g.slot].value.load(std::memory_order_relaxed);
    agg = sum ? agg + v : std::max(agg, v);
  }
  return agg;
}

std::uint64_t TelemetryDomain::GaugeHighWater(TelemetryGauge g) const {
  std::uint64_t agg = 0;
  const bool sum = gauge_aggs_[g.slot] == GaugeAgg::kSum;
  for (const auto& shard : shards_) {
    const std::uint64_t v =
        shard->gauges[g.slot].hwm.load(std::memory_order_relaxed);
    agg = sum ? agg + v : std::max(agg, v);
  }
  return agg;
}

LogHistogram TelemetryDomain::HistogramMerged(TelemetryHistogram h) const {
  LogHistogram out;
  for (const auto& shard : shards_) out.Merge(shard->hists[h.slot]);
  return out;
}

void TelemetryDomain::PublishTo(MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  for (std::uint32_t slot = 0; slot < counter_names_.size(); ++slot) {
    TelemetryCounter c{slot};
    // Per-shard cells are monotone and relaxed loads respect each cell's
    // modification order, so the summed total never goes backwards between
    // publishes — the delta is always >= 0.
    const std::uint64_t total = CounterTotal(c);
    const std::uint64_t delta = total - published_counters_[slot];
    if (delta != 0) registry.Counter(counter_names_[slot]).Inc(delta);
    published_counters_[slot] = total;
  }
  for (std::uint32_t slot = 0; slot < gauge_names_.size(); ++slot) {
    TelemetryGauge g{slot};
    MetricGauge& gauge = registry.Gauge(gauge_names_[slot]);
    gauge.Set(GaugeTotal(g));
    gauge.ObserveHighWater(GaugeHighWater(g));
  }
  for (std::uint32_t slot = 0; slot < hist_names_.size(); ++slot) {
    TelemetryHistogram h{slot};
    const LogHistogram merged = HistogramMerged(h);
    const std::uint64_t delta = merged.count() - published_hist_counts_[slot];
    if (delta != 0) {
      registry.Counter(hist_names_[slot] + ".count").Inc(delta);
    }
    published_hist_counts_[slot] = merged.count();
    if (!merged.empty()) {
      registry.Gauge(hist_names_[slot] + ".p50_ns").Set(merged.Median());
      registry.Gauge(hist_names_[slot] + ".p99_ns").Set(merged.P99());
    }
  }
}

}  // namespace netlock
