// Figure 9 — Comparison between a lock switch and a lock server with
// various numbers of cores (paper Section 6.2).
//
// Ten client machines generate three workloads — shared locks, exclusive
// locks without contention, and exclusive locks with contention (5000
// locks) — against (i) the NetLock switch and (ii) a server-only lock
// manager with 1..8 cores. The lock switch is never saturated; the server
// saturates at cores * per-core rate, giving the paper's >= 7x gap.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

namespace netlock {
namespace {

constexpr SimTime kWarmup = 5 * kMillisecond;

struct Workload {
  const char* name;
  double shared_fraction;
  LockId num_locks;
};

const Workload kWorkloads[] = {
    {"shared", 1.0, 100'000},
    {"excl-nocontention", 0.0, 100'000},
    {"excl-contention(5000)", 0.0, 5'000},
};

RunMetrics RunOne(SystemKind system, const Workload& workload, int cores,
                  SimTime measure, SimContext& context) {
  TestbedConfig config;
  config.context = &context;
  config.system = system;
  config.client_machines = 10;
  config.sessions_per_machine = 48;
  config.lock_servers = 1;
  config.server_config.cores = cores;
  config.txn_config.think_time = 0;
  MicroConfig micro;
  micro.num_locks = workload.num_locks;
  micro.shared_fraction = workload.shared_fraction;
  config.switch_config.queue_capacity =
      std::max(100'000u, 2 * micro.num_locks + 4096);
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  if (system == SystemKind::kNetLock) {
    testbed.netlock().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
  }
  RunMetrics m = testbed.Run(kWarmup, measure);
  testbed.StopEngines();
  return m;
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("fig09_switch_vs_server", ParseBenchOptions(argc, argv));
  const SimTime measure =
      report.quick() ? 5 * kMillisecond : 20 * kMillisecond;
  // --quick samples the core sweep instead of running all eight points.
  const std::vector<int> core_sweep =
      report.quick() ? std::vector<int>{1, 4, 8}
                     : std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8};
  std::printf(
      "NetLock reproduction — Figure 9 (lock switch vs lock server)\n"
      "Ten client machines; server cores swept 1..8; switch unsaturated.\n");

  Banner("Lock switch (NetLock) throughput, MRPS");
  {
    Table table({"workload", "tput(MRPS)"});
    for (const Workload& w : kWorkloads) {
      const RunMetrics m = RunOne(SystemKind::kNetLock, w, 8, measure,
                                  report.context());
      table.AddRow({w.name, Fmt(m.LockThroughputMrps())});
      report.AddRun(std::string("switch/") + w.name, m);
    }
    table.Print();
  }

  Banner("Lock server throughput by core count, MRPS");
  {
    Table table({"workload", "1", "2", "3", "4", "5", "6", "7", "8"});
    double best_server = 0.0;
    for (const Workload& w : kWorkloads) {
      std::vector<std::string> row{w.name};
      for (const int cores : core_sweep) {
        const RunMetrics m =
            RunOne(SystemKind::kServerOnly, w, cores, measure,
                   report.context());
        best_server = std::max(best_server, m.LockThroughputMrps());
        row.push_back(Fmt(m.LockThroughputMrps()));
        report.AddRun(std::string("server/") + w.name +
                          "/cores=" + std::to_string(cores),
                      m);
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf(
        "\nExpected shape (paper): server scales with cores to ~18 MRPS at\n"
        "8 cores and saturates; the switch outperforms it by >= 7x under\n"
        "the same client load and is itself never the bottleneck.\n");
  }
  return report.Write() ? 0 : 1;
}
