// Shared driver for the Figure 10/11 system comparisons: run TPC-C under
// low and high contention across NetLock, DSLR, DrTM, and NetChain, and
// print the paper's four panels (lock throughput, transaction throughput,
// average latency, tail latency).
#pragma once

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

namespace netlock::bench {

struct TpccResult {
  SystemKind system;
  bool high_contention;
  RunMetrics metrics;
};

inline RunMetrics RunTpcc(SystemKind system, int client_machines,
                          int lock_servers, bool high_contention,
                          SimTime warmup, SimTime measure,
                          SimContext& context) {
  TestbedConfig config;
  config.context = &context;
  config.system = system;
  config.client_machines = client_machines;
  // The paper's DPDK clients oversubscribe every system's bottleneck; with
  // closed-loop sessions the equivalent pressure needs more of them.
  config.sessions_per_machine = 16;
  config.lock_servers = lock_servers;
  // In-memory transaction execution time while holding locks.
  config.txn_config.think_time = 10 * kMicrosecond;
  config.txn_config.abort_backoff = 200 * kMicrosecond;
  const std::uint32_t warehouses =
      TpccWarehouses(client_machines, high_contention);
  config.workload_factory = TpccFactory(warehouses);
  // The decentralized baselines host the full lock table in server memory.
  config.lock_space = TpccWorkload(TpccConfig{warehouses, 0}).lock_space();
  Testbed testbed(config);
  if (system == SystemKind::kNetLock) {
    ProfileAndInstall(testbed, config.switch_config.queue_capacity,
                      /*random_strawman=*/false,
                      /*profile_duration=*/30 * kMillisecond);
  }
  RunMetrics metrics = testbed.Run(warmup, measure);
  testbed.StopEngines(kSecond);
  return metrics;
}

inline void PrintComparison(const char* figure, int client_machines,
                            int lock_servers,
                            const std::vector<TpccResult>& results) {
  std::printf(
      "\nNetLock reproduction — %s (TPC-C, %d clients + %d lock servers)\n",
      figure, client_machines, lock_servers);
  for (const bool high : {false, true}) {
    Banner(std::string(figure) + (high ? " — high contention (1 wh/node)"
                                       : " — low contention (10 wh/node)"));
    Table table({"system", "lock tput(MRPS)", "txn tput(MTPS)",
                 "avg lat(ms)", "p99 lat(ms)", "retries"});
    double netlock_txn = 0, dslr_txn = 0;
    for (const TpccResult& r : results) {
      if (r.high_contention != high) continue;
      const RunMetrics& m = r.metrics;
      table.AddRow({ToString(r.system), Fmt(m.LockThroughputMrps(), 3),
                    Fmt(m.TxnThroughputMtps(), 4),
                    FmtMs(static_cast<SimTime>(m.txn_latency.Mean())),
                    FmtMs(m.txn_latency.P99()),
                    std::to_string(m.retries)});
      if (r.system == SystemKind::kNetLock) {
        netlock_txn = m.TxnThroughputMtps();
      }
      if (r.system == SystemKind::kDslr) dslr_txn = m.TxnThroughputMtps();
    }
    table.Print();
    if (dslr_txn > 0) {
      std::printf("NetLock vs DSLR transaction throughput: %.1fx\n",
                  netlock_txn / dslr_txn);
    }
  }
  std::printf(
      "\nExpected shape (paper): NetLock > NetChain > DSLR > DrTM on\n"
      "throughput, with NetLock an order of magnitude over DSLR and larger\n"
      "gaps (and far better tails) under high contention.\n");
}

inline int RunFigure(const char* figure, const char* bench_name,
                     int client_machines, int lock_servers, SimTime warmup,
                     SimTime measure, int argc, char** argv) {
  BenchReport report(bench_name, ParseBenchOptions(argc, argv));
  if (report.quick()) {
    // CI scale: a quarter of the measurement window, same systems.
    warmup = warmup / 2;
    measure = measure / 4;
  }
  std::vector<TpccResult> results;
  for (const bool high : {false, true}) {
    for (const SystemKind system :
         {SystemKind::kDslr, SystemKind::kDrtm, SystemKind::kNetChain,
          SystemKind::kNetLock}) {
      std::fprintf(stderr, "  running %s %s...\n", ToString(system),
                   high ? "high-contention" : "low-contention");
      results.push_back(TpccResult{
          system, high,
          RunTpcc(system, client_machines, lock_servers, high, warmup,
                  measure, report.context())});
      const TpccResult& r = results.back();
      report.AddRun(std::string(high ? "high/" : "low/") +
                        ToString(r.system),
                    r.metrics);
    }
  }
  PrintComparison(figure, client_machines, lock_servers, results);
  return report.Write() ? 0 : 1;
}

}  // namespace netlock::bench
