// Tests for the metrics registry: instrument identity, snapshot format,
// reset semantics, and the gauge high-water mark.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/metrics.h"

namespace netlock {
namespace {

TEST(MetricsRegistryTest, CounterAccumulates) {
  MetricsRegistry registry;
  MetricCounter& c = registry.Counter("a.events");
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistryTest, SameNameSharesInstrument) {
  // Two components resolving the same name must share one instrument so
  // snapshots report rack-wide totals.
  MetricsRegistry registry;
  MetricCounter& a = registry.Counter("server.grants");
  MetricCounter& b = registry.Counter("server.grants");
  EXPECT_EQ(&a, &b);
  a.Inc();
  b.Inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(registry.num_instruments(), 1u);
}

TEST(MetricsRegistryTest, AddressesStableAcrossInsertions) {
  MetricsRegistry registry;
  MetricCounter& first = registry.Counter("m.a");
  // Insert enough instruments to force any rehash/reallocation a
  // non-node-based container would do.
  for (int i = 0; i < 1000; ++i) {
    registry.Counter("m.bulk." + std::to_string(i));
  }
  EXPECT_EQ(&first, &registry.Counter("m.a"));
  first.Inc();
  EXPECT_EQ(registry.Counter("m.a").value(), 1u);
}

TEST(MetricsRegistryTest, GaugeTracksHighWater) {
  MetricsRegistry registry;
  MetricGauge& g = registry.Gauge("q.depth");
  g.Set(5);
  g.Set(17);
  g.Set(3);
  EXPECT_EQ(g.value(), 3u);
  EXPECT_EQ(g.high_water(), 17u);
  g.Add(-2);
  EXPECT_EQ(g.value(), 1u);
  g.Add(30);
  EXPECT_EQ(g.value(), 31u);
  EXPECT_EQ(g.high_water(), 31u);
}

TEST(MetricsRegistryTest, SnapshotSortedWithGaugeHwm) {
  MetricsRegistry registry;
  registry.Counter("z.last").Inc(9);
  registry.Counter("a.first").Inc(1);
  registry.Gauge("m.depth").Set(4);
  const std::vector<MetricSample> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 4u);  // 2 counters + gauge + gauge .hwm.
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const MetricSample& x, const MetricSample& y) {
        return x.name < y.name;
      }));
  auto find = [&](const std::string& name) -> std::uint64_t {
    for (const MetricSample& s : snap) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "missing sample " << name;
    return 0;
  };
  EXPECT_EQ(find("a.first"), 1u);
  EXPECT_EQ(find("z.last"), 9u);
  EXPECT_EQ(find("m.depth"), 4u);
  EXPECT_EQ(find("m.depth.hwm"), 4u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesKeepsInstruments) {
  MetricsRegistry registry;
  MetricCounter& c = registry.Counter("x.count");
  MetricGauge& g = registry.Gauge("x.depth");
  c.Inc(7);
  g.Set(9);
  registry.Reset();
  EXPECT_EQ(registry.num_instruments(), 2u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.high_water(), 0u);
  // The addresses survive reset: instruments resolved before Reset keep
  // reporting into the registry.
  c.Inc();
  EXPECT_EQ(registry.Counter("x.count").value(), 1u);
}

TEST(MetricsRegistryTest, GaugeAddClampsAtZero) {
  // Regression: a negative delta larger than the current value used to
  // wrap to a huge uint64 and poison the high-water mark; it must clamp
  // at zero instead.
  MetricsRegistry registry;
  MetricGauge& g = registry.Gauge("q.underflow");
  g.Set(3);
  g.Add(-10);
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.high_water(), 3u);
  // Subsequent sets still track the high-water mark correctly.
  g.Set(5);
  EXPECT_EQ(g.high_water(), 5u);
  // The INT64_MIN edge (negation would overflow a signed 64-bit).
  g.Add(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.high_water(), 5u);
}

TEST(MetricsRegistryTest, ResetClearsHighWaterAndKeepsReferences) {
  MetricsRegistry registry;
  MetricCounter& c = registry.Counter("r.count");
  MetricGauge& g = registry.Gauge("r.depth");
  c.Inc(100);
  g.Set(50);
  g.Set(2);
  ASSERT_EQ(g.high_water(), 50u);
  registry.Reset();
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.high_water(), 0u);
  // Instruments resolved before Reset stay valid and keep reporting into
  // the same registry entries (components cache the address once).
  c.Inc(3);
  g.Set(7);
  EXPECT_EQ(&c, &registry.Counter("r.count"));
  EXPECT_EQ(&g, &registry.Gauge("r.depth"));
  EXPECT_EQ(registry.Counter("r.count").value(), 3u);
  EXPECT_EQ(registry.Gauge("r.depth").value(), 7u);
  EXPECT_EQ(registry.Gauge("r.depth").high_water(), 7u);
}

}  // namespace
}  // namespace netlock
