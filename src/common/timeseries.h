// Backend-neutral time-series bucket store.
//
// The bucketing core extracted from the harness TimeSeriesSampler so the
// real-time backend can produce the same "time_series" report section the
// simulated benches have — without depending on the Simulator for tick
// scheduling. The store tracks resolved registry instruments (counters as
// per-bucket deltas/rates, gauges as end-of-bucket levels); the caller
// decides when a bucket boundary happens: the sim sampler schedules ticks
// as simulation events, the rt stats poller ticks from a wall-clock thread.
//
// Thread-safety: Watch/WatchGauge/WatchP99/Begin/Tick and the accessors
// must be externally serialized (one owner thread). The instruments' cells
// are atomics, so reading them while worker threads update is safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"

namespace netlock {

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(SimTime interval = kMillisecond);

  /// Tracks a counter: each bucket reports the delta over the bucket
  /// (Delta) and the corresponding rate in events/second (Value).
  void Watch(std::string name, const MetricCounter& counter);

  /// Tracks a gauge: each bucket reports the level at the bucket's end.
  void WatchGauge(std::string name, const MetricGauge& gauge);

  /// Tracks a histogram's p99 as a level: each bucket reports the p99 of
  /// everything recorded up to the bucket's end.
  void WatchP99(std::string name, const MetricHistogram& histogram);

  /// Takes the baseline counter snapshot; buckets are timestamped relative
  /// to `start_time` (ns). Call after all Watch()es, before the first Tick.
  void Begin(SimTime start_time);
  bool begun() const { return begun_; }

  /// Closes one bucket: appends counter deltas and gauge levels.
  void Tick();

  /// Forgets the watched instruments and keeps the buckets, for a store
  /// that outlives the registry it watched (a run's result outlives its
  /// rig). Begin() and Tick() CHECK-fail afterwards; the readers below
  /// still work.
  void Detach();

  SimTime interval() const { return interval_; }
  std::size_t num_series() const { return series_.size(); }
  std::size_t num_buckets() const {
    return series_.empty() ? 0 : series_.front().deltas.size();
  }

  const std::string& series_name(std::size_t s) const {
    return series_[s].name;
  }
  bool series_is_rate(std::size_t s) const { return series_[s].is_rate; }

  /// Midpoint of bucket `b` in seconds since time zero — the natural x
  /// coordinate when plotting rate buckets.
  double BucketTimeSeconds(std::size_t b) const;

  /// Rate series: events/second over the bucket. Gauge series: the level
  /// sampled at the end of the bucket.
  double Value(std::size_t s, std::size_t b) const;

  /// Raw per-bucket count delta (rate series) or end-of-bucket level
  /// (gauge series).
  std::uint64_t Delta(std::size_t s, std::size_t b) const {
    return series_[s].deltas[b];
  }

 private:
  struct Series {
    std::string name;
    bool is_rate = false;            ///< Counter (rate) vs gauge (level).
    const MetricCounter* counter = nullptr;
    const MetricGauge* gauge = nullptr;
    const MetricHistogram* histogram = nullptr;
    std::uint64_t last = 0;          ///< Counter value at last tick.
    std::vector<std::uint64_t> deltas;
  };

  SimTime interval_;
  SimTime start_time_ = 0;
  bool begun_ = false;
  bool detached_ = false;
  std::vector<Series> series_;
};

}  // namespace netlock
