#include "harness/sampler.h"

#include "common/check.h"

namespace netlock {

TimeSeriesSampler::TimeSeriesSampler(Simulator& sim, SimTime interval)
    : sim_(sim), store_(interval) {}

void TimeSeriesSampler::Watch(const std::string& counter_name) {
  NETLOCK_CHECK(!store_.begun());
  store_.Watch(counter_name, sim_.context().metrics().Counter(counter_name));
}

void TimeSeriesSampler::Watch(std::string series_name,
                              const MetricCounter& counter) {
  store_.Watch(std::move(series_name), counter);
}

void TimeSeriesSampler::WatchGauge(const std::string& gauge_name) {
  NETLOCK_CHECK(!store_.begun());
  store_.WatchGauge(gauge_name, sim_.context().metrics().Gauge(gauge_name));
}

void TimeSeriesSampler::Start(SimTime horizon) {
  NETLOCK_CHECK(!store_.begun());
  store_.Begin(sim_.now());
  // Schedule every tick up front rather than self-rescheduling: a chain of
  // ticks would keep the event queue non-empty forever and Simulator::Run()
  // would never drain.
  for (SimTime t = store_.interval(); t <= horizon; t += store_.interval()) {
    sim_.Schedule(t, [this]() { Tick(); });
  }
}

void TimeSeriesSampler::Tick() {
  if (stopped_) return;
  // The pending-events gauge is sampled, not exact, between reconciles;
  // flush it so gauge series read the true depth at the bucket boundary.
  sim_.ReconcileDepthMetric();
  store_.Tick();
}

}  // namespace netlock
