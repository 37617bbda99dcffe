// Ablation — shared queue vs statically-bound register arrays (paper §4.2,
// Figure 5; DESIGN.md ablation #1).
//
// The paper's basic design binds one fixed-size register array to each
// lock; the shared queue pools arrays and sizes each lock's region to its
// measured contention c_i at runtime. This bench quantifies the difference
// two ways:
//   1. Analytically: the guaranteed-rate objective of Algorithm 3's
//      formulation, across demand skews, for static arrays of several
//      fixed sizes vs the shared queue (knapsack).
//   2. End-to-end: a TPC-C run where the installed allocation is produced
//      by StaticAllocate vs KnapsackAllocate.
#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "core/memory_alloc.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

namespace netlock {
namespace {

std::vector<LockDemand> SkewedDemands(std::size_t n, double alpha,
                                      std::uint64_t seed) {
  // Zipf-shaped rates with contention roughly tracking rate (hot locks see
  // more concurrent requests), the regime the shared queue is built for.
  std::vector<LockDemand> demands;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double rate = 1e6 / std::pow(static_cast<double>(i + 1), alpha);
    const std::uint32_t contention = static_cast<std::uint32_t>(
        std::min<double>(64.0, 1.0 + rate / 5e4 + rng.NextBounded(3)));
    demands.push_back(LockDemand{static_cast<LockId>(i), rate, contention});
  }
  return demands;
}

void AnalyticTable(BenchReport& report) {
  Banner("Guaranteed request rate (fraction of total demand), 4096 slots");
  Table table({"skew(zipf a)", "static A=2", "static A=8", "static A=32",
               "shared+knapsack"});
  for (const double alpha : {0.0, 0.6, 0.9, 1.2}) {
    const auto demands = SkewedDemands(4096, alpha, 42);
    double total = 0;
    for (const auto& d : demands) total += d.rate;
    const std::uint32_t capacity = 4096;
    auto frac = [&](const Allocation& a) {
      return AllocationObjective(demands, a) / total;
    };
    const double static8 = frac(StaticAllocate(demands, capacity, 8));
    const double knapsack = frac(KnapsackAllocate(demands, capacity));
    table.AddRow({Fmt(alpha, 1),
                  Fmt(frac(StaticAllocate(demands, capacity, 2)), 3),
                  Fmt(static8, 3),
                  Fmt(frac(StaticAllocate(demands, capacity, 32)), 3),
                  Fmt(knapsack, 3)});
    BenchRun& run = report.AddRun("analytic/alpha=" + Fmt(alpha, 1));
    run.extra.emplace_back("static8_frac", static8);
    run.extra.emplace_back("knapsack_frac", knapsack);
  }
  table.Print();
}

double RunTpcc(bool use_static, std::uint32_t fixed_slots,
               BenchReport& report) {
  const bool quick = report.quick();
  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 10;
  config.sessions_per_machine = 32;
  config.lock_servers = 2;
  config.server_config.cores = 2;
  config.switch_config.queue_capacity = 3000;
  config.txn_config.think_time = 10 * kMicrosecond;
  TpccConfig tpcc;
  tpcc.warehouses = TpccWarehouses(10, false);
  tpcc.lock_items = false;
  tpcc.lock_stock = false;
  tpcc.customer_granularity = 16;
  config.workload_factory = TpccFactory(tpcc);
  Testbed testbed(config);
  const auto demands =
      testbed.ProfileDemands(quick ? 25 * kMillisecond : 50 * kMillisecond);
  const Allocation alloc =
      use_static ? StaticAllocate(demands, 3000, fixed_slots)
                 : KnapsackAllocate(demands, 3000);
  testbed.netlock().InstallAllocation(alloc);
  const RunMetrics m = testbed.Run(
      20 * kMillisecond, quick ? 25 * kMillisecond : 80 * kMillisecond);
  testbed.StopEngines(kSecond);
  return m.LockThroughputMrps();
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("ablation_shared_queue", ParseBenchOptions(argc, argv));
  std::printf(
      "NetLock reproduction — ablation: shared queue vs static arrays\n");
  AnalyticTable(report);
  Banner("End-to-end TPC-C lock throughput (MRPS), 3000 slots");
  Table table({"allocation", "tput(MRPS)"});
  auto add = [&](const char* table_name, const char* run_label,
                 bool use_static, std::uint32_t fixed_slots) {
    const double mrps = RunTpcc(use_static, fixed_slots, report);
    table.AddRow({table_name, Fmt(mrps, 2)});
    report.AddRun(run_label).throughput_mrps = mrps;
  };
  add("static arrays A=8", "tpcc/static8", true, 8);
  add("static arrays A=32", "tpcc/static32", true, 32);
  add("shared queue (knapsack)", "tpcc/shared-knapsack", false, 0);
  table.Print();
  std::printf(
      "\nExpected shape: small static arrays overflow hot locks, large ones\n"
      "waste memory on cold locks; the shared queue sizes each region to\n"
      "its contention and wins at every skew.\n");
  return report.Write() ? 0 : 1;
}
