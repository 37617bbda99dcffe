// Lightweight metrics registry: monotonic counters and gauges with
// hierarchical dotted names ("dataplane.grants", "sim.events_processed").
//
// Design goals, in order:
//   1. Near-zero cost on hot paths. Components resolve their instruments
//      once (at construction) and afterwards an update is a single integer
//      add on a stable address — no map lookup, no allocation, no branches
//      beyond the add itself.
//   2. Aggregation across instances. Two lock servers (or twelve client
//      machines) resolving the same name share one instrument, so a
//      registry snapshot reports rack-wide totals, which is what the bench
//      reports track PR over PR.
//   3. Machine readability. Snapshot() yields stable, sorted name/value
//      pairs that the JSON bench reports dump verbatim.
//
// Thread-safety: instrument updates are lock-free relaxed atomics and
// name resolution is mutex-guarded, because the real-time backend's worker
// threads (src/rt/) update shared counters concurrently. Relaxed ordering
// is sufficient — values are independent statistics, and readers that need
// exactness (snapshots after a run) synchronize externally via thread
// join. The simulator remains single-threaded; it pays one uncontended
// atomic add where it used to pay a plain add.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace netlock {

/// A monotonically increasing event count. Safe for concurrent writers.
class MetricCounter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

/// A point-in-time level (queue depth, buffered entries). Tracks the
/// current value and the high-water mark; snapshots report both. Safe for
/// concurrent writers: Add is a CAS loop (no lost updates), and the
/// high-water mark is a monotonic CAS-max.
class MetricGauge {
 public:
  void Set(std::uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
    ObserveHighWater(v);
  }
  /// Clamps at zero: a negative delta larger than the current value would
  /// otherwise wrap to a huge uint64 and poison the high-water mark.
  void Add(std::int64_t delta) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      if (delta >= 0) {
        next = cur + static_cast<std::uint64_t>(delta);
      } else {
        // |delta| without overflow when delta == INT64_MIN.
        const std::uint64_t dec = ~static_cast<std::uint64_t>(delta) + 1;
        next = cur > dec ? cur - dec : 0;
      }
    } while (!value_.compare_exchange_weak(cur, next,
                                           std::memory_order_relaxed));
    if (delta >= 0) ObserveHighWater(next);
  }
  /// Raises the high-water mark without touching the current value. Used
  /// by sampled gauges (e.g. the simulator's pending-event depth) to
  /// reconcile an exactly-tracked maximum at the end of a run.
  void ObserveHighWater(std::uint64_t v) {
    std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
    while (v > hw && !high_water_.compare_exchange_weak(
                         hw, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::uint64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> high_water_{0};
};

/// One snapshot entry. Gauges contribute two samples: "<name>" (current)
/// and "<name>.hwm" (high-water mark).
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolves (creating on first use) the counter/gauge with this name.
  /// The returned reference is stable for the registry's lifetime; resolve
  /// once and keep the pointer. A name registers as either a counter or a
  /// gauge, never both. The current prefix (see SetPrefix) is prepended at
  /// resolution time. Resolution is mutex-guarded (concurrent resolvers
  /// are safe); SetPrefix is construction-time only and is not.
  MetricCounter& Counter(const std::string& name);
  MetricGauge& Gauge(const std::string& name);

  /// Prefix prepended to every name resolved by Counter()/Gauge() — used
  /// to label instruments by the component group under construction (e.g.
  /// "rack1." while building rack 1's switch and servers, so dashboards
  /// split by rack). Construction-time only: components resolve their
  /// instruments once, so changing the prefix later does not re-label them.
  void SetPrefix(std::string prefix) { prefix_ = std::move(prefix); }
  const std::string& prefix() const { return prefix_; }

  /// All instruments (gauges as two samples), sorted by name.
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every value (names and addresses survive). Benches call this
  /// between runs to attribute counts to one configuration.
  void Reset();

  /// Folds another registry into this one: counters add their totals,
  /// gauges take the other's current value and the max of both high-water
  /// marks. Merging per-simulation registries into one target in task
  /// order reproduces, byte for byte, the snapshot a serial run sharing the
  /// target would have produced — which is what keeps parallel
  /// sweeps' bench reports identical to serial ones. Instruments missing
  /// here are created.
  void MergeFrom(const MetricsRegistry& other);

  std::size_t num_instruments() const {
    return counters_.size() + gauges_.size();
  }

 private:
  std::string prefix_;
  /// Guards the instrument maps (resolution / snapshot / merge), not the
  /// instruments themselves — those are atomics updated lock-free.
  mutable std::mutex mu_;
  std::map<std::string, MetricCounter> counters_;
  std::map<std::string, MetricGauge> gauges_;
};

/// RAII prefix for a construction scope: restores the previous prefix on
/// destruction, so nested groups compose ("rack2." inside "" -> "rack2.").
class ScopedMetricPrefix {
 public:
  ScopedMetricPrefix(MetricsRegistry& registry, const std::string& prefix)
      : registry_(registry), saved_(registry.prefix()) {
    registry_.SetPrefix(saved_ + prefix);
  }
  ~ScopedMetricPrefix() { registry_.SetPrefix(saved_); }
  ScopedMetricPrefix(const ScopedMetricPrefix&) = delete;
  ScopedMetricPrefix& operator=(const ScopedMetricPrefix&) = delete;

 private:
  MetricsRegistry& registry_;
  std::string saved_;
};

}  // namespace netlock
