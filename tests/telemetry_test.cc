// Tests for the wait-free sharded telemetry plane: single-writer counter,
// gauge, and histogram semantics; delta publication into a MetricsRegistry;
// name lookup; concurrent writers vs. an aggregating reader (the contract
// the live stats poller relies on — run under TSan in CI); and the
// backend-neutral TimeSeriesStore's bucketing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/timeseries.h"

namespace netlock {
namespace {

TEST(TelemetryDomainTest, CountersSumAcrossShards) {
  TelemetryDomain domain(3);
  const TelemetryCounter c = domain.RegisterCounter("t.grants");
  domain.Inc(0, c, 5);
  domain.Inc(1, c);
  domain.Inc(2, c, 10);
  domain.Inc(1, c, 2);
  EXPECT_EQ(domain.CounterShard(0, c), 5u);
  EXPECT_EQ(domain.CounterShard(1, c), 3u);
  EXPECT_EQ(domain.CounterShard(2, c), 10u);
  EXPECT_EQ(domain.CounterTotal(c), 18u);
  EXPECT_EQ(domain.counter_name(c), "t.grants");
}

TEST(TelemetryDomainTest, GaugeAggregationSumAndMax) {
  TelemetryDomain domain(2);
  const TelemetryGauge depth =
      domain.RegisterGauge("t.depth", TelemetryDomain::GaugeAgg::kSum);
  const TelemetryGauge batch =
      domain.RegisterGauge("t.batch", TelemetryDomain::GaugeAgg::kMax);
  domain.GaugeSet(0, depth, 4);
  domain.GaugeSet(1, depth, 6);
  domain.GaugeSet(0, batch, 9);
  domain.GaugeSet(1, batch, 3);
  EXPECT_EQ(domain.GaugeTotal(depth), 10u);
  EXPECT_EQ(domain.GaugeTotal(batch), 9u);
  // Lowering a gauge keeps its high-water mark.
  domain.GaugeSet(0, depth, 1);
  domain.GaugeSet(0, batch, 2);
  EXPECT_EQ(domain.GaugeTotal(depth), 7u);
  EXPECT_EQ(domain.GaugeShardHighWater(0, depth), 4u);
  EXPECT_EQ(domain.GaugeHighWater(depth), 10u);  // Sum of shard hwms.
  EXPECT_EQ(domain.GaugeHighWater(batch), 9u);   // Max of shard hwms.
}

TEST(TelemetryDomainTest, HistogramMatchesReferenceLogHistogram) {
  TelemetryDomain domain(2);
  const TelemetryHistogram h = domain.RegisterHistogram("t.lat");
  LogHistogram reference;
  const SimTime samples[] = {10,    999,    1000,   4096,  4097,
                             65536, 100000, 123456, 7,     1};
  int shard = 0;
  for (const SimTime s : samples) {
    domain.Record(shard, h, s);
    reference.Record(s);
    shard = 1 - shard;
  }
  const LogHistogram merged = domain.HistogramMerged(h);
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.Min(), reference.Min());
  EXPECT_EQ(merged.Max(), reference.Max());
  EXPECT_DOUBLE_EQ(merged.Mean(), reference.Mean());
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.Percentile(p), reference.Percentile(p)) << "p=" << p;
  }
}

TEST(TelemetryDomainTest, FindByName) {
  TelemetryDomain domain(1);
  const TelemetryCounter c = domain.RegisterCounter("t.c");
  const TelemetryGauge g = domain.RegisterGauge("t.g");
  const TelemetryHistogram h = domain.RegisterHistogram("t.h");
  TelemetryCounter fc;
  TelemetryGauge fg;
  TelemetryHistogram fh;
  ASSERT_TRUE(domain.FindCounter("t.c", &fc));
  ASSERT_TRUE(domain.FindGauge("t.g", &fg));
  ASSERT_TRUE(domain.FindHistogram("t.h", &fh));
  EXPECT_EQ(fc.slot, c.slot);
  EXPECT_EQ(fg.slot, g.slot);
  EXPECT_EQ(fh.slot, h.slot);
  EXPECT_FALSE(domain.FindCounter("t.nope", &fc));
  EXPECT_FALSE(domain.FindGauge("t.c", &fg));
  EXPECT_FALSE(domain.FindHistogram("t.g", &fh));
}

TEST(TelemetryDomainTest, PublishToFoldsDeltasIdempotently) {
  MetricsRegistry registry;
  TelemetryDomain domain(2);
  const TelemetryCounter c = domain.RegisterCounter("t.pub.grants");
  const TelemetryGauge g = domain.RegisterGauge("t.pub.depth");
  const TelemetryHistogram h = domain.RegisterHistogram("t.pub.lat");
  domain.Inc(0, c, 3);
  domain.Inc(1, c, 4);
  domain.GaugeSet(0, g, 5);
  domain.Record(0, h, 1000);
  domain.PublishTo(registry);
  EXPECT_EQ(registry.Counter("t.pub.grants").value(), 7u);
  EXPECT_EQ(registry.Gauge("t.pub.depth").value(), 5u);
  EXPECT_EQ(registry.Counter("t.pub.lat.count").value(), 1u);
  EXPECT_GT(registry.Gauge("t.pub.lat.p50_ns").value(), 0u);
  // Re-publishing with no new writes must not double-count.
  domain.PublishTo(registry);
  EXPECT_EQ(registry.Counter("t.pub.grants").value(), 7u);
  EXPECT_EQ(registry.Counter("t.pub.lat.count").value(), 1u);
  // New writes flow through as growth only.
  domain.Inc(0, c, 2);
  domain.Record(1, h, 2000);
  domain.PublishTo(registry);
  EXPECT_EQ(registry.Counter("t.pub.grants").value(), 9u);
  EXPECT_EQ(registry.Counter("t.pub.lat.count").value(), 2u);
}

// The live poller's contract: shard-owning writers keep writing while a
// reader aggregates and publishes. Run under TSan in CI — the assertions
// here are secondary to the race-freedom of the interleaving itself.
TEST(TelemetryDomainTest, ConcurrentWritersWithAggregatingReader) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  MetricsRegistry registry;
  TelemetryDomain domain(kWriters);
  const TelemetryCounter c = domain.RegisterCounter("t.mt.count");
  const TelemetryGauge g = domain.RegisterGauge("t.mt.depth");
  const TelemetryHistogram h = domain.RegisterHistogram("t.mt.lat");
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      domain.PublishTo(registry);
      (void)domain.CounterTotal(c);
      (void)domain.GaugeTotal(g);
      (void)domain.HistogramMerged(h).Percentile(0.99);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        domain.Inc(w, c);
        domain.GaugeSet(w, g, i & 0xff);
        domain.Record(w, h, 100 + (i & 0x3ff));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  // Quiesced: the aggregate view is exact.
  EXPECT_EQ(domain.CounterTotal(c), kWriters * kPerWriter);
  EXPECT_EQ(domain.HistogramMerged(h).count(), kWriters * kPerWriter);
  domain.PublishTo(registry);
  EXPECT_EQ(registry.Counter("t.mt.count").value(), kWriters * kPerWriter);
  EXPECT_EQ(registry.Counter("t.mt.lat.count").value(),
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

TEST(TimeSeriesStoreTest, GaugeLevels) {
  MetricsRegistry registry;
  MetricGauge& g = registry.Gauge("t.ts.depth");
  TimeSeriesStore store(kMillisecond);
  store.WatchGauge("t.ts.depth", g);
  store.Begin(0);
  g.Set(7);
  store.Tick();
  g.Set(4);
  store.Tick();
  ASSERT_EQ(store.num_buckets(), 2u);
  EXPECT_FALSE(store.series_is_rate(0));
  EXPECT_DOUBLE_EQ(store.Value(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(store.Value(0, 1), 4.0);
}

}  // namespace
}  // namespace netlock
