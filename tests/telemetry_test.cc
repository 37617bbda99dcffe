// Tests for the sharded telemetry plane of the metrics registry: counters
// summed across per-writer shards, gauges aggregated as a sum or a max,
// histograms against a reference LogHistogram, merging a sharded registry
// into a one-shard run context, shard writers racing snapshot and
// time-series readers (the contract the live stats poller relies on — run
// under TSan in CI), and the TimeSeriesStore's bucketing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/timeseries.h"

namespace netlock {
namespace {

std::map<std::string, std::uint64_t> SnapshotMap(
    const MetricsRegistry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const MetricSample& sample : registry.Snapshot()) {
    out[sample.name] = sample.value;
  }
  return out;
}

// --- Per-writer shards ----------------------------------------------------

TEST(MetricsRegistryTest, CountersSumAcrossShards) {
  MetricsRegistry registry(3);
  MetricCounter& c = registry.Counter("t.grants");
  c.Inc(0, 5);
  c.Inc(1, 1);
  c.Inc(2, 10);
  c.Inc(1, 2);
  EXPECT_EQ(c.shard_value(0), 5u);
  EXPECT_EQ(c.shard_value(1), 3u);
  EXPECT_EQ(c.shard_value(2), 10u);
  EXPECT_EQ(c.value(), 18u);
  EXPECT_EQ(SnapshotMap(registry).at("t.grants"), 18u);
}

TEST(MetricsRegistryTest, GaugesAggregateAsSumOrMax) {
  MetricsRegistry registry(2);
  MetricGauge& depth = registry.Gauge("t.depth", GaugeAgg::kSum);
  MetricGauge& batch = registry.Gauge("t.batch", GaugeAgg::kMax);
  depth.Set(0, 4);
  depth.Set(1, 6);
  batch.Set(0, 9);
  batch.Set(1, 3);
  EXPECT_EQ(depth.value(), 10u);
  EXPECT_EQ(batch.value(), 9u);
  // Lowering a gauge keeps its high-water mark.
  depth.Set(0, 1);
  batch.Set(0, 2);
  EXPECT_EQ(depth.value(), 7u);
  EXPECT_EQ(batch.value(), 3u);
  EXPECT_EQ(depth.shard_high_water(0), 4u);
  EXPECT_EQ(depth.high_water(), 10u);  // Sum of shard hwms.
  EXPECT_EQ(batch.high_water(), 9u);   // Max of shard hwms.
  const auto snap = SnapshotMap(registry);
  EXPECT_EQ(snap.at("t.depth"), 7u);
  EXPECT_EQ(snap.at("t.depth.hwm"), 10u);
  EXPECT_EQ(snap.at("t.batch.hwm"), 9u);
}

TEST(MetricsRegistryTest, HistogramMatchesReferenceLogHistogram) {
  MetricsRegistry registry(2);
  MetricHistogram& h = registry.Histogram("t.lat");
  LogHistogram reference;
  const SimTime samples[] = {10,    999,    1000,   4096,  4097,
                             65536, 100000, 123456, 7,     1};
  int shard = 0;
  for (const SimTime s : samples) {
    h.Record(shard, s);
    reference.Record(s);
    shard = 1 - shard;
  }
  const LogHistogram merged = h.Merged();
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.Min(), reference.Min());
  EXPECT_EQ(merged.Max(), reference.Max());
  EXPECT_DOUBLE_EQ(merged.Mean(), reference.Mean());
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.Percentile(p), reference.Percentile(p)) << "p=" << p;
  }
  const auto snap = SnapshotMap(registry);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at("t.lat.count"), reference.count());
  EXPECT_EQ(snap.at("t.lat.p50_ns"), reference.Median());
  EXPECT_EQ(snap.at("t.lat.p99_ns"), reference.P99());
}

TEST(MetricsRegistryTest, MergeFromFoldsShardsIntoOneShardTarget) {
  MetricsRegistry sharded(2);
  sharded.Counter("t.grants").Inc(0, 3);
  sharded.Counter("t.grants").Inc(1, 4);
  sharded.Gauge("t.batch", GaugeAgg::kMax).Set(1, 5);
  sharded.Histogram("t.lat").Record(0, 1000);
  sharded.Histogram("t.lat").Record(1, 2000);
  MetricsRegistry target;
  target.MergeFrom(sharded);
  target.MergeFrom(sharded);  // A second run adds to the totals.
  EXPECT_EQ(target.Counter("t.grants").value(), 14u);
  EXPECT_EQ(target.Gauge("t.batch").value(), 5u);
  EXPECT_EQ(target.Gauge("t.batch").agg(), GaugeAgg::kMax);
  EXPECT_EQ(target.Histogram("t.lat").Merged().count(), 4u);
  const auto snap = SnapshotMap(target);
  EXPECT_EQ(snap.at("t.lat.count"), 4u);
  EXPECT_GT(snap.at("t.lat.p50_ns"), 0u);
  // skip_idle leaves out counters at zero and empty histograms; gauges
  // always carry over.
  MetricsRegistry idle(2);
  idle.Counter("t.idle");
  idle.Histogram("t.idle_lat");
  idle.Gauge("t.level");
  MetricsRegistry run_context;
  run_context.MergeFrom(idle, /*skip_idle=*/true);
  const auto idle_snap = SnapshotMap(run_context);
  ASSERT_EQ(idle_snap.size(), 2u);
  EXPECT_EQ(idle_snap.count("t.level.hwm"), 1u);
  // Reset clears every shard, histograms included.
  sharded.Reset();
  EXPECT_EQ(sharded.Counter("t.grants").value(), 0u);
  EXPECT_EQ(sharded.Gauge("t.batch").high_water(), 0u);
  EXPECT_TRUE(sharded.Histogram("t.lat").Merged().empty());
}

// The live poller's contract: shard-owning writers keep writing while a
// reader snapshots and ticks a time series. Run under TSan in CI — the
// assertions here are secondary to the race-freedom of the interleaving.
TEST(MetricsRegistryTest, ShardWritersRaceSnapshotAndTimeSeriesReader) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  MetricsRegistry registry(kWriters);
  MetricCounter& c = registry.Counter("t.mt.count");
  MetricGauge& g = registry.Gauge("t.mt.depth");
  MetricHistogram& h = registry.Histogram("t.mt.lat");
  TimeSeriesStore store(kMillisecond);
  store.Watch("t.mt.count", c);
  store.WatchGauge("t.mt.depth", g);
  store.WatchP99("t.mt.lat.p99_ns", h);
  store.Begin(0);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)registry.Snapshot();
      store.Tick();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        c.Inc(w, 1);
        g.Set(w, i & 0xff);
        h.Record(w, 100 + (i & 0x3ff));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  store.Tick();
  // Quiesced: the aggregate view is exact, and the counter's buckets add
  // up to its total.
  EXPECT_EQ(c.value(), kWriters * kPerWriter);
  EXPECT_EQ(h.Merged().count(), kWriters * kPerWriter);
  std::uint64_t bucketed = 0;
  for (std::size_t b = 0; b < store.num_buckets(); ++b) {
    bucketed += store.Delta(0, b);
  }
  EXPECT_EQ(bucketed, kWriters * kPerWriter);
  EXPECT_EQ(SnapshotMap(registry).at("t.mt.lat.count"),
            kWriters * kPerWriter);
}

// --- TimeSeriesStore -----------------------------------------------------

TEST(TimeSeriesStoreTest, CounterDeltasAndRates) {
  MetricsRegistry registry;
  MetricCounter& c = registry.Counter("t.ts.grants");
  TimeSeriesStore store(kMillisecond);
  store.Watch("t.ts.grants", c);
  c.Inc(100);  // Pre-start history must not leak into bucket 0.
  store.Begin(0);
  c.Inc(3);
  store.Tick();
  store.Tick();
  c.Inc(5);
  store.Tick();
  ASSERT_EQ(store.num_series(), 1u);
  ASSERT_EQ(store.num_buckets(), 3u);
  EXPECT_TRUE(store.series_is_rate(0));
  EXPECT_EQ(store.Delta(0, 0), 3u);
  EXPECT_EQ(store.Delta(0, 1), 0u);
  EXPECT_EQ(store.Delta(0, 2), 5u);
  // 3 events / 1 ms = 3000 events/s.
  EXPECT_DOUBLE_EQ(store.Value(0, 0), 3000.0);
  EXPECT_DOUBLE_EQ(store.Value(0, 2), 5000.0);
  EXPECT_DOUBLE_EQ(store.BucketTimeSeconds(0), 0.5e-3);
}

TEST(TimeSeriesStoreTest, GaugeAndP99Levels) {
  MetricsRegistry registry(2);
  MetricGauge& g = registry.Gauge("t.ts.depth");
  MetricHistogram& h = registry.Histogram("t.ts.lat");
  TimeSeriesStore store(kMillisecond);
  store.WatchGauge("t.ts.depth", g);
  store.WatchP99("t.ts.lat.p99_ns", h);
  store.Begin(0);
  g.Set(0, 7);
  store.Tick();
  g.Set(0, 4);
  g.Set(1, 1);
  h.Record(1, 5000);
  store.Tick();
  ASSERT_EQ(store.num_buckets(), 2u);
  EXPECT_FALSE(store.series_is_rate(0));
  EXPECT_FALSE(store.series_is_rate(1));
  EXPECT_DOUBLE_EQ(store.Value(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(store.Value(0, 1), 5.0);  // Summed across shards.
  EXPECT_EQ(store.Delta(1, 0), 0u);          // Empty histogram.
  EXPECT_EQ(store.Delta(1, 1), h.Merged().P99());
  EXPECT_GT(store.Delta(1, 1), 0u);
}

}  // namespace
}  // namespace netlock
