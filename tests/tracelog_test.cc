// Tests for request-lifecycle tracing and the time-series sampler:
// exporter validity (hand-rolled JSON check, monotonic timestamps,
// balanced async begin/end), determinism (two identical runs produce
// byte-identical traces), sampling, capacity bounds, and sampler
// bucketing/rates.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/tracelog.h"
#include "harness/experiment.h"
#include "harness/sampler.h"
#include "harness/testbed.h"
#include "net/lock_wire.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/micro.h"

namespace netlock {
namespace {

// --- Minimal JSON validator (structure only, no value semantics) --------

class JsonParser {
 public:
  explicit JsonParser(const std::string& s)
      : p_(s.c_str()), end_(p_ + s.size()) {}

  bool Parse() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end_ - p_) < n ||
        std::strncmp(p_, lit, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }
  bool Value() {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++p_;  // '{'
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (p_ >= end_ || *p_ != ':') return false;
      ++p_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ < end_ && *p_ == '}') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++p_;  // '['
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ < end_ && *p_ == ']') {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
      }
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
            *p_ == 'e' || *p_ == 'E' || *p_ == '+' || *p_ == '-')) {
      ++p_;
    }
    return p_ > start;
  }

  const char* p_;
  const char* end_;
};

bool IsValidJson(const std::string& s) { return JsonParser(s).Parse(); }

// --- Trace over a real (small) NetLock rack -----------------------------

/// Runs a short contended NetLock scenario with full tracing on the
/// testbed's own context and returns the exported JSON.
std::string RunTracedScenario() {
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 2;
  config.lock_servers = 1;
  MicroConfig micro;
  micro.num_locks = 8;
  micro.zipf_alpha = 0.9;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.sim().context().trace().Enable(1);
  ProfileAndInstall(testbed, config.switch_config.queue_capacity,
                    /*random_strawman=*/false,
                    /*profile_duration=*/2 * kMillisecond);
  testbed.StartEngines();
  testbed.sim().RunUntil(testbed.sim().now() + 5 * kMillisecond);
  testbed.StopEngines();
  return testbed.sim().context().trace().ToJson();
}

TEST(TraceExportTest, ScenarioProducesValidJson) {
  const std::string json = RunTracedScenario();
  EXPECT_GT(json.size(), 1000u);
  EXPECT_TRUE(IsValidJson(json));
  // The request path's tracks all show up.
  EXPECT_NE(json.find("\"wire.acquire\""), std::string::npos);
  EXPECT_NE(json.find("\"client.acquire_rtt\""), std::string::npos);
  EXPECT_NE(json.find("\"lock_request\""), std::string::npos);
}

TEST(TraceExportTest, ExportedTimestampsMonotonic) {
  const std::string json = RunTracedScenario();
  double last = -1.0;
  std::size_t pos = 0;
  int seen = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    const double ts = std::strtod(json.c_str() + pos, nullptr);
    EXPECT_GE(ts, last) << "timestamp regression at offset " << pos;
    last = ts;
    ++seen;
  }
  EXPECT_GT(seen, 100);
}

TEST(TraceExportTest, AsyncBeginEndBalanced) {
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 2;
  config.lock_servers = 1;
  MicroConfig micro;
  micro.num_locks = 8;
  micro.zipf_alpha = 0.9;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  TraceLog& log = testbed.sim().context().trace();
  log.Enable(1);
  ProfileAndInstall(testbed, config.switch_config.queue_capacity,
                    /*random_strawman=*/false,
                    /*profile_duration=*/2 * kMillisecond);
  testbed.StartEngines();
  testbed.sim().RunUntil(testbed.sim().now() + 5 * kMillisecond);
  // StopEngines drains in-flight transactions, so every opened request
  // span must close (grant, reject, or timeout).
  testbed.StopEngines();
  std::map<std::pair<std::string, std::uint64_t>, int> open;
  int begins = 0;
  for (const TraceEvent& ev : log.events()) {
    if (ev.phase == 'b') {
      ++open[{ev.name, ev.id}];
      ++begins;
    } else if (ev.phase == 'e') {
      --open[{ev.name, ev.id}];
    }
  }
  EXPECT_GT(begins, 100);
  for (const auto& [key, count] : open) {
    EXPECT_EQ(count, 0) << "unbalanced async span " << key.first << " id "
                        << key.second;
  }
}

TEST(TraceExportTest, IdenticalRunsProduceByteIdenticalTraces) {
  const std::string a = RunTracedScenario();
  const std::string b = RunTracedScenario();
  EXPECT_EQ(a, b);
}

// --- TraceLog unit behavior ---------------------------------------------

TEST(TraceLogTest, DisabledRecordsNothing) {
  TraceLog log;
  log.Instant(TraceTrack::kClient, "x", 10);
  log.Complete(TraceTrack::kClient, "y", 10, 20);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLogTest, CapacityBoundsMemoryAndCountsDrops) {
  TraceLog log;
  log.Enable(1);
  log.SetCapacity(10);
  for (int i = 0; i < 15; ++i) {
    log.Instant(TraceTrack::kClient, "tick", i);
  }
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.dropped(), 5u);
  EXPECT_TRUE(IsValidJson(log.ToJson()));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

// Every LockOp has its own wire span name: a traced cancel is
// "wire.cancel", not a catch-all.
TEST(TraceLogTest, CancelPacketSpanCarriesItsName) {
  Simulator sim;
  Network net(sim, /*default_one_way_latency=*/1000);
  const NodeId client = net.AddNode([](const Packet&) {});
  const NodeId server = net.AddNode([](const Packet&) {});
  TraceLog& trace = sim.context().trace();
  trace.Enable(1);
  LockHeader cancel;
  cancel.op = LockOp::kCancel;
  cancel.lock_id = 3;
  cancel.txn_id = 7;
  cancel.client_node = client;
  net.Send(MakeLockPacket(client, server, cancel));
  sim.Run();
  std::vector<std::string> wire_spans;
  for (const TraceEvent& e : trace.events()) {
    if (e.track == TraceTrack::kNetwork) wire_spans.push_back(e.name);
  }
  EXPECT_EQ(wire_spans, std::vector<std::string>{"wire.cancel"});
}

TEST(TraceLogTest, RequestIdNeverZeroAndStable) {
  EXPECT_NE(TraceLog::RequestId(0, 0), 0u);
  EXPECT_EQ(TraceLog::RequestId(7, 9), TraceLog::RequestId(7, 9));
  EXPECT_NE(TraceLog::RequestId(7, 9), TraceLog::RequestId(9, 7));
}

TEST(TraceLogTest, ConcurrentPushesFromManyThreadsAllLand) {
  TraceLog log;
  log.Enable(1);
  log.SetCapacity(1 << 20);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Instant(TraceTrack::kClient, "mt", t * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(IsValidJson(log.ToJson()));
}

TEST(TraceLogTest, ConcurrentPushesRespectCapacityBudget) {
  TraceLog log;
  log.Enable(1);
  log.SetCapacity(1000);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Instant(TraceTrack::kClient, "cap", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The budgeted claim can round capacity down to a chunk boundary per
  // thread but never exceeds it, and every rejected push is counted.
  EXPECT_LE(log.size(), 1000u);
  EXPECT_GT(log.size(), 0u);
  EXPECT_EQ(log.size() + log.dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(TraceLogTest, SamplingSelectsStableSubset) {
  TraceLog log;
  log.Enable(4);
  int sampled = 0;
  const int kRequests = 4000;
  for (int i = 0; i < kRequests; ++i) {
    const LockId lock = static_cast<LockId>(i % 97);
    const TxnId txn = static_cast<TxnId>(i);
    const bool s = log.Sampled(lock, txn);
    // Deterministic: the same request samples the same way every time
    // (that is what makes end-to-end correlation work).
    EXPECT_EQ(s, log.Sampled(lock, txn));
    if (s) ++sampled;
  }
  // Roughly 1/4 (the id hash is uniform enough for a wide tolerance).
  EXPECT_GT(sampled, kRequests / 8);
  EXPECT_LT(sampled, kRequests / 2);
  log.Enable(1);
  EXPECT_TRUE(log.Sampled(123, 456));
  log.Disable();
  EXPECT_FALSE(log.Sampled(123, 456));
}

// --- TimeSeriesSampler ---------------------------------------------------

TEST(TimeSeriesSamplerTest, BucketsCounterDeltasIntoRates) {
  Simulator sim;
  MetricCounter& c = sim.context().metrics().Counter("test.sampler.rate");
  TimeSeriesSampler sampler(sim, 1000);  // 1 us buckets.
  sampler.Watch("test.sampler.rate");
  // 3 events in bucket 0, none in bucket 1, 5 in bucket 2.
  sim.Schedule(100, [&c]() { c.Inc(3); });
  sim.Schedule(2500, [&c]() { c.Inc(5); });
  sampler.Start(3000);
  sim.Run();
  const TimeSeriesStore& store = sampler.store();
  ASSERT_EQ(store.num_series(), 1u);
  ASSERT_EQ(store.num_buckets(), 3u);
  EXPECT_TRUE(store.series_is_rate(0));
  EXPECT_EQ(store.Delta(0, 0), 3u);
  EXPECT_EQ(store.Delta(0, 1), 0u);
  EXPECT_EQ(store.Delta(0, 2), 5u);
  // 3 events in 1 us = 3e6 events/s.
  EXPECT_DOUBLE_EQ(store.Value(0, 0), 3e6);
  EXPECT_DOUBLE_EQ(store.Value(0, 2), 5e6);
  EXPECT_DOUBLE_EQ(store.BucketTimeSeconds(0), 0.5e-6);
}

// The bucket rule the throughput-over-time figures read: bucket k holds
// [k * interval, (k + 1) * interval), so an event at exactly k * interval
// counts in bucket k. Start() schedules every tick before the run, so at a
// shared instant the tick closing bucket k - 1 runs before any event
// scheduled after it.
TEST(TimeSeriesSamplerTest, EventAtBucketBoundaryCountsInNextBucket) {
  Simulator sim;
  MetricCounter& c = sim.context().metrics().Counter("test.sampler.edge");
  TimeSeriesSampler sampler(sim, 100 * kMillisecond);
  sampler.Watch("test.sampler.edge");
  sampler.Start(300 * kMillisecond);
  for (const SimTime ms : {50, 100, 150, 199}) {
    sim.Schedule(ms * kMillisecond, [&c]() { c.Inc(); });
  }
  sim.Schedule(200 * kMillisecond, [&c]() { c.Inc(5000); });
  sim.Run();
  const TimeSeriesStore& store = sampler.store();
  ASSERT_EQ(store.num_buckets(), 3u);
  EXPECT_EQ(store.Delta(0, 0), 1u);
  EXPECT_EQ(store.Delta(0, 1), 3u);  // 100 ms (the boundary), 150, 199.
  EXPECT_EQ(store.Delta(0, 2), 5000u);
  EXPECT_DOUBLE_EQ(store.Value(0, 2), 50000.0);  // 5000 / 0.1 s.
  EXPECT_DOUBLE_EQ(store.BucketTimeSeconds(0), 0.05);
}

TEST(TimeSeriesSamplerTest, BaselineExcludesPreStartCounts) {
  Simulator sim;
  MetricCounter& c = sim.context().metrics().Counter("test.sampler.baseline");
  c.Inc(1000);  // Pre-existing total must not leak into bucket 0.
  TimeSeriesSampler sampler(sim, 1000);
  sampler.Watch("test.sampler.baseline");
  sampler.Start(1000);
  sim.Schedule(500, [&c]() { c.Inc(2); });
  sim.Run();
  ASSERT_EQ(sampler.store().num_buckets(), 1u);
  EXPECT_EQ(sampler.store().Delta(0, 0), 2u);
}

TEST(TimeSeriesSamplerTest, GaugeSeriesReportsLevels) {
  Simulator sim;
  MetricGauge& g = sim.context().metrics().Gauge("test.sampler.depth");
  TimeSeriesSampler sampler(sim, 1000);
  sampler.WatchGauge("test.sampler.depth");
  sim.Schedule(200, [&g]() { g.Set(7); });
  sim.Schedule(1200, [&g]() { g.Set(4); });
  sampler.Start(2000);
  sim.Run();
  ASSERT_EQ(sampler.store().num_buckets(), 2u);
  EXPECT_FALSE(sampler.store().series_is_rate(0));
  EXPECT_DOUBLE_EQ(sampler.store().Value(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(sampler.store().Value(0, 1), 4.0);
}

TEST(TimeSeriesSamplerTest, HorizonBoundsTicksSoRunDrains) {
  Simulator sim;
  sim.context().metrics().Counter("test.sampler.drain");
  TimeSeriesSampler sampler(sim, 100);
  sampler.Watch("test.sampler.drain");
  sampler.Start(1000);
  // Run() must terminate: the sampler schedules a bounded set of ticks
  // rather than self-rescheduling forever.
  sim.Run();
  EXPECT_EQ(sampler.store().num_buckets(), 10u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimeSeriesSamplerTest, StopMakesRemainingTicksNoOps) {
  Simulator sim;
  MetricCounter& c = sim.context().metrics().Counter("test.sampler.stop");
  TimeSeriesSampler sampler(sim, 100);
  sampler.Watch("test.sampler.stop");
  sampler.Start(1000);
  sim.Schedule(250, [&sampler]() { sampler.Stop(); });
  sim.Schedule(300, [&c]() { c.Inc(); });
  sim.Run();
  // Ticks at 100 and 200 only.
  EXPECT_EQ(sampler.store().num_buckets(), 2u);
}

}  // namespace
}  // namespace netlock
