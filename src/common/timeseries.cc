#include "common/timeseries.h"

#include "common/check.h"

namespace netlock {

TimeSeriesStore::TimeSeriesStore(SimTime interval) : interval_(interval) {
  NETLOCK_CHECK(interval_ > 0);
}

void TimeSeriesStore::Watch(std::string name, const MetricCounter& counter) {
  NETLOCK_CHECK(!begun_);
  Series s;
  s.name = std::move(name);
  s.is_rate = true;
  s.counter = &counter;
  series_.push_back(std::move(s));
}

void TimeSeriesStore::WatchGauge(std::string name, const MetricGauge& gauge) {
  NETLOCK_CHECK(!begun_);
  Series s;
  s.name = std::move(name);
  s.is_rate = false;
  s.gauge = &gauge;
  series_.push_back(std::move(s));
}

void TimeSeriesStore::WatchP99(std::string name,
                               const MetricHistogram& histogram) {
  NETLOCK_CHECK(!begun_);
  Series s;
  s.name = std::move(name);
  s.histogram = &histogram;
  series_.push_back(std::move(s));
}

void TimeSeriesStore::Begin(SimTime start_time) {
  NETLOCK_CHECK(!begun_ && !detached_);
  begun_ = true;
  start_time_ = start_time;
  for (Series& s : series_) {
    if (s.is_rate) s.last = s.counter->value();
  }
}

void TimeSeriesStore::Tick() {
  NETLOCK_CHECK(begun_ && !detached_);
  for (Series& s : series_) {
    if (s.is_rate) {
      const std::uint64_t v = s.counter->value();
      s.deltas.push_back(v - s.last);
      s.last = v;
    } else if (s.gauge != nullptr) {
      s.deltas.push_back(s.gauge->value());
    } else {
      s.deltas.push_back(s.histogram->Merged().P99());
    }
  }
}

void TimeSeriesStore::Detach() {
  detached_ = true;
  for (Series& s : series_) {
    s.counter = nullptr;
    s.gauge = nullptr;
    s.histogram = nullptr;
  }
}

double TimeSeriesStore::BucketTimeSeconds(std::size_t b) const {
  const double bucket_ns = static_cast<double>(interval_);
  return (static_cast<double>(start_time_) +
          (static_cast<double>(b) + 0.5) * bucket_ns) /
         1e9;
}

double TimeSeriesStore::Value(std::size_t s, std::size_t b) const {
  const Series& series = series_[s];
  const double raw = static_cast<double>(series.deltas[b]);
  if (!series.is_rate) return raw;
  return raw / (static_cast<double>(interval_) / 1e9);
}

}  // namespace netlock
