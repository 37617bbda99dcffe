// Metrics registry: counters, gauges and latency histograms with
// hierarchical dotted names ("dataplane.grants", "rt.lock_latency"). It is
// the one instrument store of both substrates.
//
// Design goals, in order:
//   1. Near-zero cost on hot paths. Components resolve their instruments
//      once (at construction) and afterwards an update is a relaxed load
//      and store on a stable address — no map lookup, no allocation, no
//      atomic read-modify-write.
//   2. Shared-nothing writers. Every instrument has one cell per writer
//      shard, each cell alone on its cache lines. A simulation has one
//      shard; the real-time lock service has one per worker core and its
//      client pool one per client thread, so cores never write a shared
//      line (the per-core server state of the paper's Section 5).
//   3. Aggregation across instances and shards. Two lock servers (or twelve
//      client machines) resolving the same name share one instrument, and
//      value(), Snapshot() and MergeFrom() aggregate its shards, so a
//      snapshot reports rack-wide totals.
//   4. Machine readability. Snapshot() yields stable, sorted name/value
//      pairs that the JSON bench reports dump verbatim.
//
// Thread-safety: each cell has exactly one writer thread, which updates it
// with a relaxed load plus a relaxed store. Any thread may read while the
// writers run; an aggregate read is then racy but never torn, and exact
// once the writers quiesce (thread join). Name resolution is
// mutex-guarded. SetPrefix, Reset and a MergeFrom into this registry must
// not run concurrently with its writers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace netlock {

/// How a gauge aggregates across shards: kSum for additive levels (mailbox
/// depth), kMax for per-shard extrema (largest drain batch).
enum class GaugeAgg : std::uint8_t { kSum = 0, kMax = 1 };

namespace metrics_detail {

/// One cell per writer shard, each alone on its cache line(s). Writers
/// keep the cells' addresses, so an instrument is neither copied nor moved.
/// Cells are padded to 128 bytes, not 64: x86's adjacent-line prefetcher
/// moves 64-byte lines in 128-byte pairs, so two cores writing neighbouring
/// lines still contend.
template <typename T>
class Shards {
 public:
  explicit Shards(int n)
      : n_(n),
        cells_(std::make_unique<Padded[]>(static_cast<std::size_t>(n))) {}
  Shards(const Shards&) = delete;
  Shards& operator=(const Shards&) = delete;
  int size() const { return n_; }
  T& operator[](int s) { return cells_[static_cast<std::size_t>(s)].cell; }
  const T& operator[](int s) const {
    return cells_[static_cast<std::size_t>(s)].cell;
  }

 private:
  struct alignas(128) Padded {
    T cell{};
  };
  int n_;
  std::unique_ptr<Padded[]> cells_;
};

inline std::uint64_t Load(const std::atomic<std::uint64_t>& cell) {
  return cell.load(std::memory_order_relaxed);
}
/// The single writer's update: never an atomic read-modify-write.
inline void Store(std::atomic<std::uint64_t>& cell, std::uint64_t v) {
  cell.store(v, std::memory_order_relaxed);
}

}  // namespace metrics_detail

/// A monotonically increasing event count.
class MetricCounter {
 public:
  explicit MetricCounter(int shards = 1) : cells_(shards) {}

  /// Adds to shard 0, the only shard of a simulation's registry.
  void Inc(std::uint64_t n = 1) { Inc(0, n); }
  /// Adds to `shard`'s cell; call only from that shard's writer thread.
  void Inc(int shard, std::uint64_t n) {
    std::atomic<std::uint64_t>& cell = cells_[shard];
    metrics_detail::Store(cell, metrics_detail::Load(cell) + n);
  }

  std::uint64_t shard_value(int shard) const {
    return metrics_detail::Load(cells_[shard]);
  }
  /// The sum over shards.
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  metrics_detail::Shards<std::atomic<std::uint64_t>> cells_;
};

/// A point-in-time level (queue depth, buffered entries) and its
/// high-water mark; snapshots report both.
class MetricGauge {
 public:
  explicit MetricGauge(int shards = 1, GaugeAgg agg = GaugeAgg::kSum)
      : cells_(shards), agg_(agg) {}

  void Set(std::uint64_t v) { Set(0, v); }
  /// Sets `shard`'s level; call only from that shard's writer thread.
  void Set(int shard, std::uint64_t v) {
    Cell& cell = cells_[shard];
    metrics_detail::Store(cell.value, v);
    if (v > metrics_detail::Load(cell.hwm)) metrics_detail::Store(cell.hwm, v);
  }
  /// Adds to shard 0, clamping at zero: a negative delta larger than the
  /// current value would otherwise wrap to a huge uint64 and poison the
  /// high-water mark.
  void Add(std::int64_t delta);
  /// Raises shard 0's high-water mark without touching its value. Used by
  /// sampled gauges (e.g. the simulator's pending-event depth) to reconcile
  /// an exactly-tracked maximum at the end of a run.
  void ObserveHighWater(std::uint64_t v);

  std::uint64_t shard_value(int shard) const {
    return metrics_detail::Load(cells_[shard].value);
  }
  std::uint64_t shard_high_water(int shard) const {
    return metrics_detail::Load(cells_[shard].hwm);
  }
  /// The shards' levels (or high-water marks) aggregated per agg(). A
  /// summed high-water mark bounds the total's peak from above.
  std::uint64_t value() const { return Aggregate(&Cell::value); }
  std::uint64_t high_water() const { return Aggregate(&Cell::hwm); }
  GaugeAgg agg() const { return agg_; }

 private:
  friend class MetricsRegistry;
  struct Cell {
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> hwm{0};
  };
  std::uint64_t Aggregate(std::atomic<std::uint64_t> Cell::*field) const;

  metrics_detail::Shards<Cell> cells_;
  GaugeAgg agg_;
};

/// A log-bucketed latency histogram. Snapshots report "<name>.count",
/// "<name>.p50_ns" and "<name>.p99_ns".
class MetricHistogram {
 public:
  explicit MetricHistogram(int shards = 1) : cells_(shards) {}

  /// Call only from `shard`'s writer thread.
  void Record(int shard, SimTime nanos) { cells_[shard].Record(nanos); }
  /// Every shard merged (LogHistogram::Merge, so writers may be running).
  LogHistogram Merged() const;

 private:
  friend class MetricsRegistry;
  metrics_detail::Shards<LogHistogram> cells_;
};

/// One snapshot entry.
struct MetricSample {
  std::string name;
  std::uint64_t value = 0;
};

class MetricsRegistry {
 public:
  /// Every instrument gets `num_shards` writer shards.
  explicit MetricsRegistry(int num_shards = 1);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolves (creating on first use) the instrument with this name. The
  /// returned reference is stable for the registry's lifetime; resolve
  /// once and keep the pointer. A name registers as one kind only. The
  /// current prefix (see SetPrefix) is prepended at resolution time.
  MetricCounter& Counter(const std::string& name);
  /// `agg` applies when this call creates the gauge.
  MetricGauge& Gauge(const std::string& name, GaugeAgg agg = GaugeAgg::kSum);
  MetricHistogram& Histogram(const std::string& name);

  int num_shards() const { return num_shards_; }

  /// Prefix prepended to every name resolved afterwards — used to label
  /// instruments by the component group under construction (e.g. "rack1."
  /// while building rack 1's switch and servers, so dashboards split by
  /// rack). Construction-time only: components resolve their instruments
  /// once, so changing the prefix later does not re-label them.
  void SetPrefix(std::string prefix) { prefix_ = std::move(prefix); }
  const std::string& prefix() const { return prefix_; }

  /// All instruments, sorted by name. A gauge contributes "<name>" and
  /// "<name>.hwm"; a histogram its count, p50 and p99.
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every value (names and addresses survive). Benches call this
  /// between runs to attribute counts to one configuration.
  void Reset();

  /// Folds another registry (any shard count, writers quiescent) into
  /// this one's shard 0: counters add their totals, gauges take the
  /// other's level and the max of both high-water marks, histograms merge.
  /// Merging per-simulation registries into one target in task order
  /// reproduces, byte for byte, the snapshot a serial run sharing the
  /// target would have produced — which is what keeps parallel sweeps'
  /// bench reports identical to serial ones. Instruments missing here are
  /// created, except that `skip_idle` leaves out counters still at zero
  /// and empty histograms (an rt run's report lists only what happened).
  void MergeFrom(const MetricsRegistry& other, bool skip_idle = false);

  std::size_t num_instruments() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  /// Finds or creates `full` (prefix already applied) in `map`. Caller
  /// holds mu_.
  template <typename T, typename... Args>
  T& Resolve(std::map<std::string, T>& map, const std::string& full,
             Args... args);

  const int num_shards_;
  std::string prefix_;
  /// Guards the name maps (resolution, snapshot, merge), not the cells.
  mutable std::mutex mu_;
  std::map<std::string, MetricCounter> counters_;
  std::map<std::string, MetricGauge> gauges_;
  std::map<std::string, MetricHistogram> histograms_;
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
