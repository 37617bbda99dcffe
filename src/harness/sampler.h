// Time-series sampling of registry instruments.
//
// The bench reports historically captured only end-of-run totals, which
// hides everything Figure 15 is about: throughput collapsing at the
// failure instant and recovering after failover. A TimeSeriesSampler
// closes that gap by snapshotting selected MetricsRegistry counters and
// gauges every `interval` simulated nanoseconds, turning the registry's
// monotonic totals into per-bucket rates (events/second) and gauge levels
// over time. Benches embed the result as a "time_series" section of
// BENCH_<name>.json via BenchReport::AttachTimeSeries.
//
// The sampler is itself a simulation actor: Start(horizon) takes the
// baseline snapshot at now() and schedules one tick per interval up to and
// including the horizon, so a run with Simulator::Run() still drains (the
// sampler never self-reschedules past the horizon). The bucketing itself
// lives in the backend-neutral TimeSeriesStore (common/timeseries.h) so
// the real-time stats poller produces the same report section from a
// wall-clock thread.
#pragma once

#include <cstdint>
#include <string>

#include "common/timeseries.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace netlock {

class TimeSeriesSampler {
 public:
  TimeSeriesSampler(Simulator& sim, SimTime interval);
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Tracks a counter: each bucket reports the delta over the bucket
  /// (store().Delta) and the rate in events/second (store().Value).
  void Watch(const std::string& counter_name);
  /// Same, for a counter kept outside the registry (a per-group commit
  /// counter; see TxnEngine::set_commit_counter). `counter` must outlive
  /// the sampler's ticks.
  void Watch(std::string series_name, const MetricCounter& counter);

  /// Tracks a gauge: each bucket reports the level at the bucket's end.
  void WatchGauge(const std::string& gauge_name);

  /// Takes the baseline snapshot at now() and schedules ticks at
  /// now()+interval, now()+2*interval, ... while tick time <= now()+horizon.
  /// Call after all Watch()es and before Simulator::Run().
  void Start(SimTime horizon);

  /// Stops sampling early: ticks already scheduled become no-ops.
  void Stop() { stopped_ = true; }

  /// The bucket store: series names, per-bucket values and deltas (what
  /// BenchReport::AttachTimeSeries consumes).
  const TimeSeriesStore& store() const { return store_; }

 private:
  void Tick();

  Simulator& sim_;
  bool stopped_ = false;
  TimeSeriesStore store_;
};

}  // namespace netlock
