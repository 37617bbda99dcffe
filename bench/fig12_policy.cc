// Figure 12 — Policy support of NetLock (paper Section 6.3).
//
//  (a) Service differentiation with priorities: two tenants with five
//      clients each; the high-priority tenant joins mid-run. Without
//      differentiation both get similar throughput; with it, the
//      high-priority tenant is served first. Printed as a throughput time
//      series per tenant.
//  (b) Performance isolation with per-tenant quota: tenant 1 has seven
//      clients, tenant 2 three. Without isolation tenant 1 starves
//      tenant 2; with quotas both obtain their (equal) shares.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sampler.h"
#include "harness/testbed.h"

namespace netlock {
namespace {

void ServiceDifferentiation(bool differentiate, BenchReport& report) {
  Banner(std::string("Figure 12(a) service differentiation — ") +
         (differentiate ? "WITH priorities" : "WITHOUT priorities"));
  // --quick compresses the timeline (same phases, half the wall cost).
  const SimTime join_at =
      report.quick() ? 50 * kMillisecond : 100 * kMillisecond;
  const SimTime end_at =
      report.quick() ? 150 * kMillisecond : 300 * kMillisecond;
  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 5;  // 5 clients per tenant.
  config.lock_servers = 1;
  config.switch_config.num_priorities = differentiate ? 2 : 1;
  config.txn_config.think_time = 15 * kMicrosecond;
  MicroConfig micro;
  micro.num_locks = 4;  // Heavily contended: priority decides who waits.
  config.workload_factory = MicroFactory(micro);
  // Engines 0..4 = high-priority tenant, 5..9 = low-priority tenant.
  config.priority_of = [](int i) {
    return static_cast<Priority>(i < 5 ? 0 : 1);
  };
  // Each tenant's commits, counted apart (declared before the testbed so
  // they outlive its engines) and sampled in 20 ms buckets.
  MetricCounter high_commits, low_commits;
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  const std::string tag =
      differentiate ? "diff/with-prio/" : "diff/without-prio/";
  for (int i = 0; i < testbed.num_engines(); ++i) {
    testbed.engine(i).set_commit_counter(i < 5 ? &high_commits : &low_commits);
  }
  TimeSeriesSampler sampler(testbed.sim(), 20 * kMillisecond);
  sampler.Watch(tag + "high.txn_commits", high_commits);
  sampler.Watch(tag + "low.txn_commits", low_commits);
  sampler.Start(end_at);
  // Low-priority tenant runs alone first; high-priority joins mid-run.
  for (int i = 5; i < 10; ++i) testbed.engine(i).Restart();
  testbed.sim().RunUntil(join_at);
  for (int i = 0; i < 5; ++i) testbed.engine(i).Restart();
  testbed.sim().RunUntil(end_at);
  testbed.StopEngines(kSecond);

  const TimeSeriesStore& series = sampler.store();
  constexpr std::size_t kHigh = 0, kLow = 1;
  Table table({"t(s)", "high-prio (KTPS)", "low-prio (KTPS)"});
  for (std::size_t b = 0; b < series.num_buckets(); ++b) {
    table.AddRow({Fmt(series.BucketTimeSeconds(b), 2),
                  Fmt(series.Value(kHigh, b) / 1e3, 1),
                  Fmt(series.Value(kLow, b) / 1e3, 1)});
  }
  table.Print();
  report.AttachTimeSeries(series);

  // The machine-readable run reports each tenant's rate over the contended
  // phase (after the high-priority tenant joins).
  const double contended_sec =
      static_cast<double>(end_at - join_at) / kSecond;
  auto rate_after_join = [&](std::size_t tenant) {
    std::uint64_t commits = 0;
    for (std::size_t b = join_at / series.interval();
         b < series.num_buckets(); ++b) {
      commits += series.Delta(tenant, b);
    }
    return commits / contended_sec / 1e6;
  };
  report.AddRun(tag + "high").txn_mtps = rate_after_join(kHigh);
  report.AddRun(tag + "low").txn_mtps = rate_after_join(kLow);
}

void PerformanceIsolation(bool isolate, BenchReport& report) {
  Banner(std::string("Figure 12(b) performance isolation — ") +
         (isolate ? "WITH per-tenant quota" : "WITHOUT isolation"));
  const SimTime measure =
      report.quick() ? 50 * kMillisecond : 200 * kMillisecond;
  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 5;
  config.lock_servers = 1;
  config.txn_config.think_time = 0;
  MicroConfig micro;
  micro.num_locks = 20'000;  // Uncontended: pure rate competition.
  config.workload_factory = MicroFactory(micro);
  // Tenant 1: engines 0..6 (seven clients); tenant 2: engines 7..9.
  config.tenant_of = [](int i) { return static_cast<TenantId>(i >= 7); };
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  if (isolate) {
    // Equal shares of the aggregate lock-request rate, below both tenants'
    // offered load so each is held to its share (paper Figure 12(b)).
    testbed.netlock().lock_switch().quota().Configure(0, 4e5, 64);
    testbed.netlock().lock_switch().quota().Configure(1, 4e5, 64);
  }
  const RunMetrics m = testbed.Run(/*warmup=*/20 * kMillisecond, measure);
  std::uint64_t t1 = 0, t2 = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    (i < 7 ? t1 : t2) += testbed.engine(i).metrics().txn_commits;
  }
  testbed.StopEngines();
  const double sec = static_cast<double>(measure) / kSecond;
  Table table({"tenant", "clients", "tput(MTPS)"});
  table.AddRow({"tenant1", "7", Fmt(t1 / sec / 1e6, 3)});
  table.AddRow({"tenant2", "3", Fmt(t2 / sec / 1e6, 3)});
  table.Print();
  const std::string tag =
      isolate ? "isolation/with-quota/" : "isolation/without-quota/";
  report.AddRun(tag + "all", m);  // Aggregate, with latency percentiles.
  report.AddRun(tag + "tenant1").txn_mtps = t1 / sec / 1e6;
  report.AddRun(tag + "tenant2").txn_mtps = t2 / sec / 1e6;
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("fig12_policy", ParseBenchOptions(argc, argv));
  std::printf("NetLock reproduction — Figure 12 (policy support)\n");
  ServiceDifferentiation(false, report);
  ServiceDifferentiation(true, report);
  PerformanceIsolation(false, report);
  PerformanceIsolation(true, report);
  std::printf(
      "\nExpected shape (paper): (a) without differentiation the tenants\n"
      "converge once both are active; with it the high-priority tenant\n"
      "keeps nearly its full rate. (b) without isolation tenant1 (7\n"
      "clients) outruns tenant2 (3 clients); with quotas both are capped\n"
      "at similar throughput.\n");
  return report.Write() ? 0 : 1;
}
