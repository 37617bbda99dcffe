// Wait-free sharded telemetry domains for the real-time backend.
//
// The MetricsRegistry's instruments are shared atomics: every worker-core
// increment is an atomic RMW on a cacheline all cores contend for, which is
// exactly the cross-core traffic a shared-nothing lock service exists to
// avoid. A TelemetryDomain gives each worker its own cache-line-isolated
// shard of every instrument — counters, gauges, and log-bucketed latency
// histograms (one LogHistogram per shard) — written with plain
// single-writer stores (a relaxed load + relaxed store, no atomic RMW, no
// fence), so a hot-path update costs the same as incrementing a local.
//
// Aggregation happens on the reader side: CounterTotal/HistogramMerged sum
// the shards on demand, and PublishTo() folds the domain into an ordinary
// MetricsRegistry as *deltas*, so registry snapshots, bench-report JSON,
// and MergeFrom semantics are exactly what they were — the domain is a
// write-side optimization, invisible downstream.
//
// Contract:
//   * Register* calls happen at setup time, before any writer runs.
//   * Each shard index has exactly one writer thread (shard = worker core).
//   * Readers (PublishTo, CounterTotal, HistogramMerged, the live stats
//     poller) may run concurrently with writers: they see a racy-but-
//     monotone view that becomes exact once writers quiesce. TSan-clean:
//     every shared cell is a std::atomic accessed with relaxed ordering.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/types.h"

namespace netlock {

/// Opaque instrument handles (indices into the domain's slot arrays).
/// Cheap to copy; resolve once at setup like MetricCounter pointers.
struct TelemetryCounter {
  std::uint32_t slot = 0;
};
struct TelemetryGauge {
  std::uint32_t slot = 0;
};
struct TelemetryHistogram {
  std::uint32_t slot = 0;
};

class TelemetryDomain {
 public:
  /// How a gauge aggregates across shards: kSum for additive levels
  /// (mailbox depth), kMax for per-shard extrema (largest drain batch).
  enum class GaugeAgg : std::uint8_t { kSum = 0, kMax = 1 };

  explicit TelemetryDomain(int num_shards);
  TelemetryDomain(const TelemetryDomain&) = delete;
  TelemetryDomain& operator=(const TelemetryDomain&) = delete;

  // --- Registration (setup time, before writers start) ---

  TelemetryCounter RegisterCounter(std::string name);
  TelemetryGauge RegisterGauge(std::string name, GaugeAgg agg = GaugeAgg::kSum);
  /// Histograms publish "<name>.count" (counter), "<name>.p50_ns" and
  /// "<name>.p99_ns" (gauges) into the registry.
  TelemetryHistogram RegisterHistogram(std::string name);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t num_counters() const { return counter_names_.size(); }
  std::size_t num_gauges() const { return gauge_names_.size(); }
  std::size_t num_histograms() const { return hist_names_.size(); }
  const std::string& counter_name(TelemetryCounter c) const {
    return counter_names_[c.slot];
  }
  const std::string& gauge_name(TelemetryGauge g) const {
    return gauge_names_[g.slot];
  }
  const std::string& histogram_name(TelemetryHistogram h) const {
    return hist_names_[h.slot];
  }

  /// Name -> handle lookups (linear; instrument counts are small). Return
  /// false when no instrument has that name. Used by live-view builders
  /// (the stats poller's snapshot provider) that don't own the handles.
  bool FindCounter(const std::string& name, TelemetryCounter* out) const;
  bool FindGauge(const std::string& name, TelemetryGauge* out) const;
  bool FindHistogram(const std::string& name, TelemetryHistogram* out) const;

  // --- Writer API: call only from the thread owning `shard` ---

  void Inc(int shard, TelemetryCounter c, std::uint64_t n = 1) {
    std::atomic<std::uint64_t>& cell =
        shards_[static_cast<std::size_t>(shard)]->counters[c.slot];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  void GaugeSet(int shard, TelemetryGauge g, std::uint64_t v) {
    GaugeCell& cell = shards_[static_cast<std::size_t>(shard)]->gauges[g.slot];
    cell.value.store(v, std::memory_order_relaxed);
    if (v > cell.hwm.load(std::memory_order_relaxed)) {
      cell.hwm.store(v, std::memory_order_relaxed);
    }
  }

  void Record(int shard, TelemetryHistogram h, SimTime nanos) {
    shards_[static_cast<std::size_t>(shard)]->hists[h.slot].Record(nanos);
  }

  // --- Reader API (any thread; exact once writers quiesce) ---

  std::uint64_t CounterShard(int shard, TelemetryCounter c) const {
    return shards_[static_cast<std::size_t>(shard)]->counters[c.slot].load(
        std::memory_order_relaxed);
  }
  std::uint64_t CounterTotal(TelemetryCounter c) const;

  std::uint64_t GaugeShard(int shard, TelemetryGauge g) const {
    return shards_[static_cast<std::size_t>(shard)]->gauges[g.slot].value.load(
        std::memory_order_relaxed);
  }
  std::uint64_t GaugeShardHighWater(int shard, TelemetryGauge g) const {
    return shards_[static_cast<std::size_t>(shard)]->gauges[g.slot].hwm.load(
        std::memory_order_relaxed);
  }
  /// Aggregated per the gauge's GaugeAgg (sum or max over shards).
  std::uint64_t GaugeTotal(TelemetryGauge g) const;
  /// Aggregated high-water mark (sum of shard hwms for kSum — an upper
  /// bound on the instantaneous total — max of shard hwms for kMax).
  std::uint64_t GaugeHighWater(TelemetryGauge g) const;

  /// All shards merged (LogHistogram::Merge: the count is the sum of the
  /// bucket reads, so a racing read stays consistent with itself).
  LogHistogram HistogramMerged(TelemetryHistogram h) const;

  /// Folds the domain into `registry` as deltas since the last PublishTo:
  /// counters Inc() the growth, gauges Set() the aggregate, histograms
  /// publish "<name>.count" / "<name>.p50_ns" / "<name>.p99_ns". Repeated
  /// calls are cheap and idempotent-at-quiescence, so a live poller can
  /// publish every interval and the registry's totals stay correct.
  /// Serialized internally (safe from any thread).
  void PublishTo(MetricsRegistry& registry);

 private:
  struct GaugeCell {
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> hwm{0};
  };
  /// One writer core's slice of every instrument. Shards are separately
  /// heap-allocated and cache-line aligned so no two cores' hot cells share
  /// a line. Deques (not vectors) because atomic cells are not movable and
  /// registration appends; deque growth never relocates existing cells.
  struct alignas(64) Shard {
    std::deque<std::atomic<std::uint64_t>> counters;
    std::deque<GaugeCell> gauges;
    std::deque<LogHistogram> hists;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<GaugeAgg> gauge_aggs_;
  std::vector<std::string> hist_names_;

  /// Guards the publish bookkeeping (PublishTo from poller + final flush).
  std::mutex publish_mu_;
  std::vector<std::uint64_t> published_counters_;
  std::vector<std::uint64_t> published_hist_counts_;
};

}  // namespace netlock
