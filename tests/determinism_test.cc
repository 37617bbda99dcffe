// Determinism guarantees the parallel-sweep machinery rests on:
//  - the same seeds produce byte-identical bench-report JSON (after
//    zeroing the two wall-clock fields) and byte-identical trace JSON;
//  - a sweep run serially and the same sweep run on a 4-thread pool merge
//    to byte-identical reports, because per-task contexts fold back in
//    task order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/sim_context.h"
#include "common/tracelog.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

namespace netlock {
namespace {

RunMetrics RunTinyTestbed(SimContext& context, std::uint32_t queue_capacity) {
  TestbedConfig config;
  config.context = &context;
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 2;
  config.lock_servers = 1;
  config.switch_config.queue_capacity = queue_capacity;
  MicroConfig micro;
  micro.num_locks = 64;
  micro.zipf_alpha = 0.9;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(UniformMicroDemands(micro, 4));
  RunMetrics m = testbed.Run(kMillisecond, 5 * kMillisecond);
  testbed.StopEngines(kSecond);
  return m;
}

/// Runs a 6-point sweep on `threads` workers and renders the bench report
/// from a fresh merge target, exactly like a figure bench with --jobs.
std::string SweepReportJson(int threads) {
  SimContext merged;
  BenchOptions opts;
  opts.quick = true;
  opts.jobs = threads;
  BenchReport report("determinism_test", opts, &merged);
  std::vector<RunMetrics> metrics(6);
  ParallelSweep(
      6, threads,
      [&metrics](int task, SimContext& context) {
        metrics[static_cast<std::size_t>(task)] = RunTinyTestbed(
            context, /*queue_capacity=*/64u + 64u * static_cast<std::uint32_t>(
                                                       task % 3));
      },
      merged);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    report.AddRun("point=" + std::to_string(i), metrics[i]);
  }
  return StripWallClockFields(report.ToJson());
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalReports) {
  SimContext a;
  SimContext b;
  const RunMetrics ma = RunTinyTestbed(a, 128);
  const RunMetrics mb = RunTinyTestbed(b, 128);
  EXPECT_EQ(ma.lock_grants, mb.lock_grants);
  EXPECT_EQ(ma.txn_commits, mb.txn_commits);

  BenchOptions opts;
  opts.quick = true;
  BenchReport ra("determinism_test", opts, &a);
  BenchReport rb("determinism_test", opts, &b);
  ra.AddRun("run", ma);
  rb.AddRun("run", mb);
  EXPECT_EQ(StripWallClockFields(ra.ToJson()),
            StripWallClockFields(rb.ToJson()));
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalTraces) {
  std::vector<std::string> traces;
  for (int rep = 0; rep < 2; ++rep) {
    SimContext context;
    context.trace().Enable();
    RunTinyTestbed(context, 128);
    context.trace().Disable();
    ASSERT_GT(context.trace().size(), 0u);
    traces.push_back(context.trace().ToJson());
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(DeterminismTest, SerialAndParallelSweepsRenderIdenticalReports) {
  const std::string serial = SweepReportJson(/*threads=*/1);
  const std::string parallel = SweepReportJson(/*threads=*/4);
  EXPECT_EQ(serial, parallel);
  // Two parallel executions agree with each other too (scheduling noise
  // must not leak into the report).
  EXPECT_EQ(parallel, SweepReportJson(/*threads=*/4));
}

}  // namespace
}  // namespace netlock
