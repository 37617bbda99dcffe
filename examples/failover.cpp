// Failover demo: inject a switch failure mid-run, reactivate it, and watch
// the control plane recover the allocation while leases clear stranded
// state (paper Section 4.5 / Figure 15).
//
//   $ ./example_failover
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sampler.h"
#include "harness/testbed.h"

using namespace netlock;

int main() {
  std::printf("NetLock switch failover demo\n");
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 4;
  config.sessions_per_machine = 4;
  config.lock_servers = 2;
  config.client_retry_timeout = 2 * kMillisecond;
  config.lease = 10 * kMillisecond;
  config.lease_poll_interval = 2 * kMillisecond;
  config.txn_config.think_time = 5 * kMicrosecond;
  MicroConfig micro;
  micro.num_locks = 128;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  TimeSeriesSampler sampler(testbed.sim(), 25 * kMillisecond);
  sampler.Watch("client.txn_commits");
  sampler.Start(500 * kMillisecond);
  testbed.StartEngines();

  testbed.sim().RunUntil(200 * kMillisecond);
  std::printf("t=0.20s: injecting switch failure (registers lost)\n");
  testbed.netlock().control_plane().FailSwitch();

  testbed.sim().RunUntil(300 * kMillisecond);
  std::printf("t=0.30s: reactivating switch; control plane reinstalls the "
              "allocation\n");
  testbed.netlock().control_plane().RecoverSwitch();

  testbed.sim().RunUntil(500 * kMillisecond);
  testbed.StopEngines(kSecond);

  Banner("Commit throughput over time");
  const TimeSeriesStore& commits = sampler.store();
  Table table({"t(s)", "tput(KTPS)", "phase"});
  for (std::size_t b = 0; b < 20; ++b) {
    const SimTime t = b * 25 * kMillisecond;
    const char* phase =
        t < 200 * kMillisecond   ? "normal"
        : t < 300 * kMillisecond ? "switch FAILED"
                                 : "recovered";
    table.AddRow({Fmt(commits.BucketTimeSeconds(b), 3),
                  Fmt(commits.Value(0, b) / 1e3, 1), phase});
  }
  table.Print();
  std::printf("stale releases absorbed after restart: %llu\n",
              static_cast<unsigned long long>(
                  testbed.netlock().lock_switch().stats().stale_releases));
  return 0;
}
