// End-to-end integration tests: full testbeds (clients + system + network)
// running microbenchmark and TPC-C workloads, checked by the LockOracle for
// mutual exclusion and by conservation invariants, across every system.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/testbed.h"
#include "testing/lock_oracle.h"

namespace netlock {
namespace {

using testing::LockOracle;
using testing::OracleSession;

TestbedConfig BaseConfig(SystemKind system) {
  TestbedConfig config;
  config.system = system;
  config.client_machines = 4;
  config.sessions_per_machine = 4;
  config.lock_servers = 2;
  config.txn_config.think_time = 5 * kMicrosecond;
  return config;
}

// Parameterized over every system: the same contended workload must be
// safe (no mutual-exclusion violation) and live (transactions commit).
class AllSystemsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystemsTest, ContendedMicroWorkloadSafeAndLive) {
  TestbedConfig config = BaseConfig(GetParam());
  MicroConfig micro;
  micro.num_locks = 8;  // Heavy contention across 16 engines.
  micro.shared_fraction = 0.3;
  micro.locks_per_txn = 2;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<OracleSession>(std::move(inner), *oracle);
  };
  Testbed testbed(config);
  if (GetParam() == SystemKind::kNetLock) {
    testbed.netlock().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
    // Fault-free run: exclusive grants must come back in per-lock
    // admission order (Algorithm 2's FIFO promise).
    testbed.netlock().lock_switch().set_queue_observer(
        [oracle](LockId lock, TxnId txn, LockMode mode, Priority cls,
                 bool overflowed) {
          oracle->OnSwitchAccept(lock, txn, mode, cls, overflowed);
        });
    testbed.netlock().lock_switch().set_grant_observer(
        [oracle](LockId lock, TxnId txn, LockMode mode, NodeId) {
          oracle->OnSwitchGrant(lock, txn, mode);
        });
  }
  const RunMetrics metrics =
      testbed.Run(/*warmup=*/10 * kMillisecond, /*measure=*/50 * kMillisecond);
  EXPECT_EQ(oracle->violations(), 0u) << ToString(GetParam());
  EXPECT_EQ(oracle->fifo_violations(), 0u) << ToString(GetParam());
  EXPECT_GT(metrics.txn_commits, 100u) << ToString(GetParam());
  EXPECT_GT(oracle->grants(), 0u);
  testbed.StopEngines();
}

TEST_P(AllSystemsTest, UncontendedWorkloadScales) {
  TestbedConfig config = BaseConfig(GetParam());
  MicroConfig micro;
  micro.num_locks = 100'000;  // Essentially no contention.
  config.workload_factory = MicroFactory(micro);
  config.txn_config.think_time = 0;
  Testbed testbed(config);
  if (GetParam() == SystemKind::kNetLock) {
    testbed.netlock().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
  }
  const RunMetrics metrics =
      testbed.Run(5 * kMillisecond, 20 * kMillisecond);
  EXPECT_GT(metrics.txn_commits, 1000u) << ToString(GetParam());
  EXPECT_EQ(metrics.lock_grants, metrics.lock_requests);
  testbed.StopEngines();
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystemsTest,
    ::testing::Values(SystemKind::kNetLock, SystemKind::kServerOnly,
                      SystemKind::kDslr, SystemKind::kDrtm,
                      SystemKind::kNetChain),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      return ToString(info.param);
    });

TEST(NetLockIntegrationTest, TpccRunsSafelyWithProfiledAllocation) {
  TestbedConfig config = BaseConfig(SystemKind::kNetLock);
  const std::uint32_t warehouses = 4;
  config.workload_factory = TpccFactory(warehouses);
  auto oracle = std::make_shared<LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<OracleSession>(std::move(inner), *oracle);
  };
  Testbed testbed(config);
  const std::vector<LockDemand> demands = ProfileAndInstall(
      testbed, config.switch_config.queue_capacity);
  EXPECT_FALSE(demands.empty());
  const RunMetrics metrics =
      testbed.Run(10 * kMillisecond, 50 * kMillisecond);
  EXPECT_EQ(oracle->violations(), 0u);
  EXPECT_GT(metrics.txn_commits, 50u);
  // With a healthy allocation most grants come from the switch.
  EXPECT_GT(metrics.switch_grants, metrics.server_grants);
  testbed.StopEngines();
}

TEST(NetLockIntegrationTest, SwitchBeatsServerOnlyOnSameWorkload) {
  MicroConfig micro;
  micro.num_locks = 50'000;
  auto run = [&](SystemKind system) {
    TestbedConfig config = BaseConfig(system);
    config.client_machines = 8;
    config.sessions_per_machine = 8;
    config.lock_servers = 1;
    config.server_config.cores = 2;  // Weak server: the bottleneck.
    config.txn_config.think_time = 0;
    config.workload_factory = MicroFactory(micro);
    Testbed testbed(config);
    if (system == SystemKind::kNetLock) {
      testbed.netlock().InstallKnapsack(
          UniformMicroDemands(micro, testbed.num_engines()));
    }
    const RunMetrics m = testbed.Run(5 * kMillisecond, 30 * kMillisecond);
    testbed.StopEngines();
    return m.LockThroughputMrps();
  };
  const double netlock_mrps = run(SystemKind::kNetLock);
  const double server_mrps = run(SystemKind::kServerOnly);
  // The paper's headline: the switch path far outruns a CPU-bound server.
  EXPECT_GT(netlock_mrps, 2.0 * server_mrps);
}

TEST(NetLockIntegrationTest, OverflowPathEngagesUnderPressure) {
  TestbedConfig config = BaseConfig(SystemKind::kNetLock);
  config.txn_config.think_time = 50 * kMicrosecond;  // Long holds.
  MicroConfig micro;
  micro.num_locks = 2;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  // Tiny regions: 2 slots per lock against 16 engines forces q2 use.
  Allocation alloc;
  alloc.switch_slots = {{0, 2}, {1, 2}};
  testbed.netlock().InstallAllocation(alloc);
  const RunMetrics metrics = testbed.Run(10 * kMillisecond,
                                         100 * kMillisecond);
  const auto& stats = testbed.netlock().lock_switch().stats();
  EXPECT_GT(stats.forwarded_overflow, 0u);
  EXPECT_GT(stats.queue_empty_notifies, 0u);
  EXPECT_GT(metrics.txn_commits, 100u);  // Still live under overflow.
  testbed.StopEngines();
}

TEST(NetLockIntegrationTest, LossyNetworkStillSafeAndLive) {
  TestbedConfig config = BaseConfig(SystemKind::kNetLock);
  config.client_retry_timeout = kMillisecond;
  config.lease = 5 * kMillisecond;
  config.lease_poll_interval = kMillisecond;
  MicroConfig micro;
  micro.num_locks = 256;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<OracleSession>(std::move(inner), *oracle);
  };
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  // 0.1% loss — an order of magnitude worse than datacenter reality, but
  // not so high that lost fire-and-forget releases (each costing a lease to
  // reclaim, by design) dominate the run.
  testbed.net().SetLossProbability(0.001, /*seed=*/5);
  const RunMetrics metrics = testbed.Run(10 * kMillisecond,
                                         100 * kMillisecond);
  testbed.net().SetLossProbability(0.0);
  EXPECT_EQ(oracle->violations(), 0u);
  EXPECT_GT(metrics.txn_commits, 500u);
  testbed.StopEngines(500 * kMillisecond);
}

TEST(NetLockIntegrationTest, SharedHeavyWorkloadBatchesGrants) {
  TestbedConfig config = BaseConfig(SystemKind::kNetLock);
  MicroConfig micro;
  micro.num_locks = 4;
  micro.shared_fraction = 0.9;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<OracleSession>(std::move(inner), *oracle);
  };
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  const RunMetrics metrics = testbed.Run(10 * kMillisecond,
                                         50 * kMillisecond);
  EXPECT_EQ(oracle->violations(), 0u);
  EXPECT_GT(metrics.txn_commits, 500u);
  // Shared-heavy traffic drives the resubmit-based batch grants.
  EXPECT_GT(testbed.netlock().lock_switch().resubmits(), 0u);
  testbed.StopEngines();
}

}  // namespace
}  // namespace netlock
