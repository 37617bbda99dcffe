// Failure-handling tests (paper Section 4.5 / Figure 15): transaction
// failures recovered by leases, deadlock broken by lease expiry, and switch
// failure + reactivation with recovery to pre-failure throughput.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/sampler.h"
#include "harness/testbed.h"
#include "sim/service_queue.h"
#include "testing/lock_oracle.h"
#include "test_util.h"

namespace netlock {
namespace {

TEST(FailureTest, LeaseRecoversFromClientCrash) {
  // A client acquires and "crashes" (never releases). Others blocked on the
  // same lock proceed once the lease expires.
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 1;
  config.sessions_per_machine = 1;
  config.lock_servers = 1;
  config.lease = 5 * kMillisecond;
  config.lease_poll_interval = kMillisecond;
  MicroConfig micro;
  micro.num_locks = 1;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(UniformMicroDemands(micro, 4));

  ClientMachine machine(testbed.net());
  auto crasher = testbed.netlock().CreateSession(machine, 0);
  auto survivor = testbed.netlock().CreateSession(machine, 0);
  testbed.net().SetLatency(crasher->node(),
                           testbed.netlock().lock_switch().node(), 2500);
  testbed.net().SetLatency(survivor->node(),
                           testbed.netlock().lock_switch().node(), 2500);
  bool crasher_granted = false, survivor_granted = false;
  crasher->Acquire(0, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult) { crasher_granted = true; });
  testbed.sim().RunUntil(kMillisecond);
  ASSERT_TRUE(crasher_granted);
  survivor->Acquire(0, LockMode::kExclusive, 2, 0,
                    [&](AcquireResult r) {
                      survivor_granted = r == AcquireResult::kGranted;
                    });
  testbed.sim().RunUntil(3 * kMillisecond);
  EXPECT_FALSE(survivor_granted);
  testbed.sim().RunUntil(20 * kMillisecond);  // Lease expires, poll clears.
  EXPECT_TRUE(survivor_granted);
}

TEST(FailureTest, DeadlockBrokenByLeases) {
  // Two sessions acquire locks A and B in opposite orders (bypassing the
  // generator's sorted order) — a classic deadlock, resolved by leases.
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 1;
  config.sessions_per_machine = 1;
  config.lock_servers = 1;
  config.lease = 5 * kMillisecond;
  config.lease_poll_interval = kMillisecond;
  MicroConfig micro;
  micro.num_locks = 2;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(UniformMicroDemands(micro, 4));

  ClientMachine machine(testbed.net());
  auto s1 = testbed.netlock().CreateSession(machine, 0);
  auto s2 = testbed.netlock().CreateSession(machine, 0);
  int s1_b = 0, s2_a = 0;
  s1->Acquire(0, LockMode::kExclusive, 1, 0, [](AcquireResult) {});
  s2->Acquire(1, LockMode::kExclusive, 2, 0, [](AcquireResult) {});
  testbed.sim().RunUntil(kMillisecond);
  s1->Acquire(1, LockMode::kExclusive, 1, 0,
              [&](AcquireResult r) { s1_b = static_cast<int>(r); });
  s2->Acquire(0, LockMode::kExclusive, 2, 0,
              [&](AcquireResult r) { s2_a = static_cast<int>(r); });
  // Deadlocked now; leases break it within tens of milliseconds.
  testbed.sim().RunUntil(100 * kMillisecond);
  // Both eventually complete (granted after the other's lease expired).
  EXPECT_EQ(s1_b, static_cast<int>(AcquireResult::kGranted));
  EXPECT_EQ(s2_a, static_cast<int>(AcquireResult::kGranted));
}

// Figure 15: kill the switch mid-run, reactivate, recover the allocation;
// throughput returns to the pre-failure level.
TEST(FailureTest, SwitchFailureAndReactivation) {
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
  micro.num_locks = 256;
  config.workload_factory = MicroFactory(micro);
  testing::LockOracle oracle;
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  TimeSeriesSampler sampler(testbed.sim(), 10 * kMillisecond);
  sampler.Watch("client.txn_commits");
  sampler.Start(300 * kMillisecond);
  testbed.StartEngines();
  testbed.sim().RunUntil(100 * kMillisecond);
  const std::size_t fail_bucket = 10;
  testbed.netlock().control_plane().FailSwitch();
  testbed.sim().RunUntil(150 * kMillisecond);
  testbed.netlock().control_plane().RecoverSwitch();
  testbed.sim().RunUntil(300 * kMillisecond);
  testbed.StopEngines(500 * kMillisecond);

  // Throughput before failure is healthy.
  const TimeSeriesStore& series = sampler.store();
  const double before = series.Value(0, fail_bucket - 2);
  EXPECT_GT(before, 0.0);
  // During failure it collapses.
  const double during = series.Value(0, fail_bucket + 2);
  EXPECT_LT(during, before * 0.1);
  // After reactivation it recovers to at least 70% of the original.
  const double after = series.Value(0, 25);
  EXPECT_GT(after, before * 0.7);
}

TEST(FailureTest, ServerFailoverRehashesAndRecovers) {
  // §4.5: a failed lock server's locks are reassigned to another server;
  // clients resubmit; the new server waits out the lease before granting.
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 4;
  config.lock_servers = 3;
  config.client_retry_timeout = kMillisecond;
  config.lease = 5 * kMillisecond;
  config.lease_poll_interval = kMillisecond;
  MicroConfig micro;
  micro.num_locks = 200;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<testing::LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<testing::OracleSession>(std::move(inner),
                                                    *oracle);
  };
  Testbed testbed(config);
  // No switch allocation: every lock is served by the servers, so the
  // failure hits hard.
  testbed.netlock().control_plane().StartLeasePolling();
  auto& control = testbed.netlock().control_plane();

  testbed.StartEngines();
  testbed.sim().RunUntil(20 * kMillisecond);
  control.FailServer(1);
  EXPECT_FALSE(control.ServerAlive(1));
  const std::uint64_t grants_at_failure =
      testbed.netlock().server(1).stats().grants;
  // Service continues on the survivors (after the grace lease).
  testbed.SetRecording(true);
  testbed.sim().RunUntil(80 * kMillisecond);
  std::uint64_t commits_during = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits_during += testbed.engine(i).metrics().txn_commits;
  }
  EXPECT_GT(commits_during, 1000u);
  // The dead server granted nothing while down.
  EXPECT_EQ(testbed.netlock().server(1).stats().grants, grants_at_failure);

  control.RecoverServer(1);
  EXPECT_TRUE(control.ServerAlive(1));
  testbed.sim().RunUntil(160 * kMillisecond);
  std::uint64_t commits_after = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits_after += testbed.engine(i).metrics().txn_commits;
  }
  EXPECT_GT(commits_after, commits_during + 1000u);
  // The recovered server serves its locks again.
  EXPECT_GT(testbed.netlock().server(1).stats().grants, grants_at_failure);
  EXPECT_EQ(oracle->violations(), 0u);
  testbed.StopEngines(kSecond);
}

TEST(FailureTest, ServerGracePeriodGatesGrants) {
  Simulator sim;
  Network net(sim, 1000);
  LockServerConfig config;
  LockServer server(net, config);
  testing::PacketCatcher client(net);
  server.GracePeriodUntil(5 * kMillisecond);
  LockHeader hdr = testing::MakeAcquire(1, LockMode::kExclusive, 1,
                                        client.node());
  hdr.flags |= kFlagServerOwned;
  net.Send(MakeLockPacket(client.node(), server.node(), hdr));
  sim.RunUntil(2 * kMillisecond);
  EXPECT_FALSE(client.HasGrantFor(1));  // Gated.
  sim.RunUntil(10 * kMillisecond);
  EXPECT_TRUE(client.HasGrantFor(1));  // Granted at grace end, in order.
}

TEST(FailureTest, ServiceQueueResetCancelsInFlightCompletions) {
  // Regression: Reset() used to clear busy_until_ but leave already
  // scheduled completion events live, so a component restarted by fault
  // injection would receive completions for work the dead incarnation had
  // in flight. The generation token must void them.
  Simulator sim;
  ServiceQueue queue(sim, 100);
  int completed = 0;
  queue.Submit([&] { ++completed; });
  queue.Submit([&] { ++completed; });
  queue.Reset();  // Crash: both in-flight completions are now orphans.
  sim.RunUntil(kMillisecond);
  EXPECT_EQ(completed, 0);  // The stale events fired as no-ops.
  EXPECT_EQ(queue.busy_until(), 0u);  // Restarted idle.
  // The restarted incarnation's own work still completes normally.
  queue.Submit([&] { ++completed; });
  sim.RunUntil(2 * kMillisecond);
  EXPECT_EQ(completed, 1);
}

TEST(FailureTest, ServerLocksUnaffectedBySwitchFailureRouting) {
  // Locks owned by servers keep their routing across a switch restart (the
  // paper: "unpopular locks stored in lock servers are not affected").
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 1;
  config.sessions_per_machine = 2;
  config.lock_servers = 2;
  MicroConfig micro;
  micro.num_locks = 50;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  // No installation: everything is server-owned via the default route.
  testbed.netlock().control_plane().StartLeasePolling();
  const RunMetrics before = testbed.Run(5 * kMillisecond, 20 * kMillisecond);
  EXPECT_GT(before.txn_commits, 100u);
  testbed.netlock().lock_switch().Restart();
  const RunMetrics after = testbed.Run(0, 20 * kMillisecond);
  // Service continues: restart kept the default routing.
  EXPECT_GT(after.txn_commits, 100u);
  testbed.StopEngines();
}

}  // namespace
}  // namespace netlock
