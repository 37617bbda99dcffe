// Tests for per-simulation telemetry contexts: isolation between contexts,
// the private context a Simulator owns when given none, and merging sweep
// results back in task order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/sim_context.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace netlock {
namespace {

TEST(SimContextTest, OwnedContextIsIsolated) {
  SimContext a;
  SimContext b;
  EXPECT_NE(&a.metrics(), &b.metrics());
  EXPECT_NE(&a.trace(), &b.trace());
  a.metrics().Counter("isolated.counter").Inc(7);
  EXPECT_EQ(a.metrics().Counter("isolated.counter").value(), 7u);
  EXPECT_EQ(b.metrics().Counter("isolated.counter").value(), 0u);
}

TEST(SimContextTest, SimulatorsWithoutContextCountOnlyTheirOwnEvents) {
  Simulator a;
  Simulator b;
  EXPECT_NE(&a.context(), &b.context());
  for (int i = 0; i < 5; ++i) a.Schedule(i, []() {});
  for (int i = 0; i < 3; ++i) b.Schedule(i, []() {});
  a.Run();
  b.Run();
  EXPECT_EQ(a.context().metrics().Counter("sim.events_processed").value(),
            5u);
  EXPECT_EQ(b.context().metrics().Counter("sim.events_processed").value(),
            3u);
}

TEST(SimContextTest, NetworkTelemetryFollowsSimulatorContext) {
  SimContext context;
  Simulator sim(&context);
  EXPECT_EQ(&sim.context(), &context);
  Network net(sim, 100);
  const NodeId a = net.AddNode(nullptr);
  const NodeId b = net.AddNode([](const Packet&) {});
  Packet pkt;
  pkt.src = a;
  pkt.dst = b;
  net.Send(pkt);
  sim.Run();
  EXPECT_EQ(context.metrics().Counter("net.packets").value(), 1u);
}

// The NetChain switch's pipeline reports into its simulation's context,
// like every other component of the testbed.
TEST(SimContextTest, NetChainPipelineCountersStayInTestbedContext) {
  SimContext context;
  TestbedConfig config;
  config.context = &context;
  config.system = SystemKind::kNetChain;
  config.client_machines = 2;
  config.sessions_per_machine = 2;
  MicroConfig micro;
  micro.num_locks = 64;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.StartEngines();
  testbed.sim().RunUntil(2 * kMillisecond);
  testbed.StopEngines(kSecond);
  EXPECT_GT(context.metrics().Counter("switchsim.passes").value(), 0u);
  EXPECT_GT(
      context.metrics().Counter("switchsim.register_accesses").value(), 0u);
}

TEST(SimContextTest, MergeFromAddsCountersAndMaxesHighWater) {
  SimContext target;
  target.metrics().Counter("c").Inc(10);
  target.metrics().Gauge("g").Set(50);  // hwm 50.
  target.metrics().Gauge("g").Set(5);

  SimContext source;
  source.metrics().Counter("c").Inc(3);
  source.metrics().Gauge("g").Set(20);  // hwm 20, value 20.

  target.metrics().MergeFrom(source.metrics());
  EXPECT_EQ(target.metrics().Counter("c").value(), 13u);
  // Gauge takes the merged-in value (last writer), hwm takes the max.
  EXPECT_EQ(target.metrics().Gauge("g").value(), 20u);
  EXPECT_EQ(target.metrics().Gauge("g").high_water(), 50u);
}

TEST(ParallelSweepTest, MergesTaskMetricsInTaskOrder) {
  // Each task writes a task-identifying gauge value; merging in task order
  // means the LAST task's value wins deterministically, and counters sum.
  for (const int threads : {1, 4}) {
    SimContext merged;
    ParallelSweep(
        8, threads,
        [](int task, SimContext& context) {
          context.metrics().Counter("sweep.work").Inc(
              static_cast<std::uint64_t>(task + 1));
          context.metrics().Gauge("sweep.last_task").Set(
              static_cast<std::uint64_t>(task));
        },
        merged);
    EXPECT_EQ(merged.metrics().Counter("sweep.work").value(), 36u)
        << "threads=" << threads;
    EXPECT_EQ(merged.metrics().Gauge("sweep.last_task").value(), 7u)
        << "threads=" << threads;
  }
}

TEST(ParallelSweepTest, RunsEveryTaskExactlyOnce) {
  std::vector<int> hits(64, 0);
  SimContext merged;
  ParallelSweep(
      64, 8,
      [&hits](int task, SimContext& context) {
        // Tasks run concurrently but each index is claimed exactly once,
        // so unsynchronized per-index writes are safe.
        hits[static_cast<std::size_t>(task)] += 1;
        context.metrics().Counter("n").Inc();
      },
      merged);
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(merged.metrics().Counter("n").value(), 64u);
}

}  // namespace
}  // namespace netlock
