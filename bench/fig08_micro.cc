// Figure 8 — Microbenchmark results of switch performance on handling lock
// requests (paper Section 6.2).
//
//  (a) Shared locks: latency vs throughput; latency stays flat (client-side
//      dominated) because the switch processes at line rate.
//  (b) Exclusive locks w/o contention: same shape as (a).
//  (c) Exclusive locks w/ contention: throughput vs number of locks.
//  (d) Exclusive locks w/ contention: latency vs number of locks.
//
// Offered load is swept by varying closed-loop client sessions per machine
// (the testbed's 12 client machines mirror the paper's 12 servers).
#include <cstdio>

#include "client/open_loop.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

namespace netlock {
namespace {

constexpr SimTime kWarmup = 5 * kMillisecond;

// --quick trims the sweeps and measurement windows to CI scale.
SimTime Measure(const BenchReport& report) {
  return report.quick() ? 5 * kMillisecond : 20 * kMillisecond;
}

TestbedConfig BaseConfig(BenchReport& report, int sessions_per_machine) {
  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 12;
  config.sessions_per_machine = sessions_per_machine;
  config.lock_servers = 2;
  config.txn_config.think_time = 0;
  return config;
}

void LatencyVsThroughput(const char* title, double shared_fraction,
                         const char* tag, BenchReport& report) {
  Banner(title);
  Table table({"offered(sessions)", "tput(MRPS)", "avg(us)", "p50(us)",
               "p99(us)", "p99.9(us)"});
  const std::vector<int> sweep =
      report.quick() ? std::vector<int>{8, 48} : std::vector<int>{2, 8, 24, 48, 64};
  for (const int sessions : sweep) {
    TestbedConfig config = BaseConfig(report, sessions);
    MicroConfig micro;
    micro.num_locks = 100'000;  // No contention.
    micro.shared_fraction = shared_fraction;
    // Room for two slots per lock (the prototype's 100K slots assume a
    // smaller working set; slots are 20 B, so this is still ~4 MB SRAM).
    config.switch_config.queue_capacity = 2 * micro.num_locks + 4096;
    config.workload_factory = MicroFactory(micro);
    Testbed testbed(config);
    testbed.netlock().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
    const RunMetrics m = testbed.Run(kWarmup, Measure(report));
    table.AddRow({std::to_string(12 * sessions),
                  Fmt(m.LockThroughputMrps()),
                  FmtUs(static_cast<SimTime>(m.lock_latency.Mean())),
                  FmtUs(m.lock_latency.Median()), FmtUs(m.lock_latency.P99()),
                  FmtUs(m.lock_latency.Percentile(0.999))});
    report.AddRun(std::string(tag) + "/sessions=" +
                      std::to_string(12 * sessions),
                  m);
    testbed.StopEngines();
  }
  table.Print();
}

// Open-loop variant: Poisson arrivals at a swept offered rate, the way the
// paper's DPDK clients load the switch — latency stays flat until the
// clients' own capacity, independent of completions.
void OpenLoopSweep(const char* title, double shared_fraction,
                   BenchReport& report) {
  Banner(title);
  Table table({"offered(MRPS)", "achieved(MRPS)", "avg(us)", "p50(us)",
               "p99(us)", "shed"});
  const std::vector<double> sweep =
      report.quick() ? std::vector<double>{40.0, 120.0}
                     : std::vector<double>{10.0, 40.0, 80.0, 120.0, 160.0};
  const SimTime window = report.quick() ? 3 * kMillisecond : 10 * kMillisecond;
  for (const double offered_mrps : sweep) {
    Simulator sim(&report.context());
    Network net(sim, 2500);
    LockSwitchConfig sw_config;
    sw_config.queue_capacity = 200'000 + 4096;
    LockSwitch lock_switch(net, sw_config);
    const NodeId server = net.AddNode([](const Packet&) {});
    MicroConfig micro;
    micro.num_locks = 100'000;
    micro.shared_fraction = shared_fraction;
    for (LockId l = 0; l < micro.num_locks; ++l) {
      lock_switch.InstallLock(l, server, 2);
    }
    std::vector<std::unique_ptr<ClientMachine>> machines;
    std::vector<std::unique_ptr<NetLockSession>> sessions;
    std::vector<std::unique_ptr<OpenLoopEngine>> engines;
    const int kMachines = 12;
    const int kEnginesPerMachine = 4;
    for (int m = 0; m < kMachines; ++m) {
      machines.push_back(std::make_unique<ClientMachine>(net));
    }
    for (int i = 0; i < kMachines * kEnginesPerMachine; ++i) {
      NetLockSession::Config sconfig;
      sconfig.switch_node = lock_switch.node();
      sessions.push_back(std::make_unique<NetLockSession>(
          *machines[i % kMachines], sconfig));
      net.SetLatency(sessions.back()->node(), lock_switch.node(), 2500);
      OpenLoopConfig oconfig;
      oconfig.offered_tps =
          offered_mrps * 1e6 / (kMachines * kEnginesPerMachine);
      oconfig.think_time = 0;
      oconfig.max_outstanding = 512;
      engines.push_back(std::make_unique<OpenLoopEngine>(
          sim, *sessions.back(), std::make_unique<MicroWorkload>(micro),
          static_cast<std::uint32_t>(i + 1), 900 + i, oconfig));
      engines.back()->Start();
    }
    sim.RunUntil(2 * kMillisecond);  // Warm up.
    for (auto& engine : engines) engine->SetRecording(true);
    sim.RunUntil(2 * kMillisecond + window);
    RunMetrics total;
    std::uint64_t shed = 0;
    for (auto& engine : engines) {
      engine->Stop();
      total.lock_grants += engine->metrics().lock_grants;
      total.lock_latency.Merge(engine->metrics().lock_latency);
      shed += engine->dropped_arrivals();
    }
    total.duration = window;
    table.AddRow({Fmt(offered_mrps, 0), Fmt(total.LockThroughputMrps()),
                  FmtUs(static_cast<SimTime>(total.lock_latency.Mean())),
                  FmtUs(total.lock_latency.Median()),
                  FmtUs(total.lock_latency.P99()), std::to_string(shed)});
    BenchRun& run = report.AddRun(
        "openloop/offered=" + Fmt(offered_mrps, 0), total);
    run.extra.emplace_back("shed", static_cast<double>(shed));
  }
  table.Print();
}

void ContentionSweep(BenchReport& report) {
  Banner("Figure 8(c)+(d): exclusive locks WITH contention — sweep #locks");
  Table table({"locks", "tput(MRPS)", "avg(us)", "p50(us)", "p99(us)",
               "p99.9(us)"});
  const std::vector<LockId> sweep =
      report.quick() ? std::vector<LockId>{2000u, 10000u}
                     : std::vector<LockId>{500u, 2000u, 4000u, 6000u, 8000u,
                                           10000u};
  for (const LockId locks : sweep) {
    TestbedConfig config = BaseConfig(report, /*sessions_per_machine=*/64);
    MicroConfig micro;
    micro.num_locks = locks;
    micro.shared_fraction = 0.0;
    config.workload_factory = MicroFactory(micro);
    Testbed testbed(config);
    testbed.netlock().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
    const RunMetrics m = testbed.Run(kWarmup, Measure(report));
    table.AddRow({std::to_string(locks), Fmt(m.LockThroughputMrps()),
                  FmtUs(static_cast<SimTime>(m.lock_latency.Mean())),
                  FmtUs(m.lock_latency.Median()), FmtUs(m.lock_latency.P99()),
                  FmtUs(m.lock_latency.Percentile(0.999))});
    report.AddRun("contention/locks=" + std::to_string(locks), m);
    testbed.StopEngines();
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): throughput rises as contention falls with\n"
      "more locks; latency falls from >100us under high contention to a few\n"
      "microseconds under low contention.\n");
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("fig08_micro", ParseBenchOptions(argc, argv));
  std::printf("NetLock reproduction — Figure 8 (switch microbenchmark)\n");
  LatencyVsThroughput(
      "Figure 8(a): shared locks — latency vs throughput", 1.0, "shared",
      report);
  LatencyVsThroughput(
      "Figure 8(b): exclusive locks w/o contention — latency vs throughput",
      0.0, "excl", report);
  OpenLoopSweep(
      "Figure 8(a/b) open-loop variant: exclusive, Poisson offered load",
      0.0, report);
  ContentionSweep(report);
  return report.Write() ? 0 : 1;
}
