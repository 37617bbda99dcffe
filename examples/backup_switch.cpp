// Backup-switch failover demo (paper Section 4.5): the primary lock switch
// dies; a backup takes over after pre-failure leases expire; the primary
// returns and locks are handed back per-lock as the backup drains — all
// without a mutual-exclusion violation.
//
//   $ ./example_backup_switch
#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sampler.h"
#include "harness/testbed.h"

using namespace netlock;

int main() {
  std::printf("NetLock backup-switch failover demo\n");
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 4;
  config.lock_servers = 2;
  config.client_retry_timeout = kMillisecond;
  config.lease = 5 * kMillisecond;
  config.lease_poll_interval = kMillisecond;
  config.txn_config.think_time = 5 * kMicrosecond;
  MicroConfig micro;
  micro.num_locks = 64;
  config.workload_factory = MicroFactory(micro);
  std::vector<NetLockSession*> sessions;
  config.session_wrapper = [&](std::unique_ptr<LockSession> inner) {
    sessions.push_back(static_cast<NetLockSession*>(inner.get()));
    return inner;
  };
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  LockSwitch backup(testbed.net(), config.switch_config);
  for (NetLockSession* s : sessions) {
    testbed.net().SetLatency(s->node(), backup.node(), 2500);
  }
  for (int i = 0; i < testbed.netlock().num_servers(); ++i) {
    testbed.net().SetLatency(backup.node(),
                             testbed.netlock().server(i).node(), 1500);
  }
  ControlPlane& control = testbed.netlock().control_plane();
  control.AttachStandby(backup, ControlPlane::Standby::kCold);
  for (NetLockSession* s : sessions) control.RegisterSession(s);

  TimeSeriesSampler sampler(testbed.sim(), 10 * kMillisecond);
  sampler.Watch("client.txn_commits");
  sampler.Start(240 * kMillisecond);
  testbed.StartEngines();
  testbed.sim().RunUntil(60 * kMillisecond);
  std::printf("t=0.060s: primary switch fails -> backup takes over\n");
  control.FailSwitch();
  testbed.sim().RunUntil(140 * kMillisecond);
  std::printf("t=0.140s: primary restarts -> backup drains, hands back\n");
  bool done = false;
  control.RecoverSwitch([&]() { done = true; });
  testbed.sim().RunUntil(240 * kMillisecond);
  testbed.StopEngines(kSecond);

  Banner("Commit throughput over time");
  const TimeSeriesStore& commits = sampler.store();
  Table table({"t(s)", "tput(KTPS)", "phase"});
  for (std::size_t b = 0; b < 24; ++b) {
    const SimTime t = b * 10 * kMillisecond;
    const char* phase = t < 60 * kMillisecond    ? "primary"
                        : t < 65 * kMillisecond  ? "lease gate"
                        : t < 140 * kMillisecond ? "backup serving"
                                                 : "handing back";
    table.AddRow({Fmt(commits.BucketTimeSeconds(b), 2),
                  Fmt(commits.Value(0, b) / 1e3, 1), phase});
  }
  table.Print();
  std::printf("backup drained and cold again: %s\n", done ? "yes" : "no");
  std::printf("primary grants: %llu, backup grants: %llu\n",
              static_cast<unsigned long long>(
                  testbed.netlock().lock_switch().stats().grants),
              static_cast<unsigned long long>(backup.stats().grants));
  return 0;
}
