// Multi-rack scale-out tests: LockDirectory partitioning, sharded session
// routing, per-rack observability labels, cross-rack re-homing under live
// traffic (checked by the LockOracle), and determinism of the sharded
// testbed.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sharding.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "testing/lock_oracle.h"
#include "workload/micro.h"

namespace netlock {
namespace {

using testing::LockOracle;
using testing::OracleSession;

// --- LockDirectory ---

TEST(LockDirectoryTest, HashPartitionIsDeterministicAndBalanced) {
  constexpr int kRacks = 4;
  constexpr LockId kLocks = 10'000;
  LockDirectory directory(kRacks);
  std::vector<int> per_rack(kRacks, 0);
  for (LockId lock = 0; lock < kLocks; ++lock) {
    const int rack = directory.RackFor(lock);
    ASSERT_GE(rack, 0);
    ASSERT_LT(rack, kRacks);
    ASSERT_EQ(rack, LockDirectory::HashRack(lock, kRacks));  // Pure.
    ASSERT_EQ(rack, directory.RackFor(lock));  // Stable across calls.
    ++per_rack[rack];
  }
  // A good hash keeps every rack within a reasonable band of the
  // 2500-lock fair share.
  for (int r = 0; r < kRacks; ++r) {
    EXPECT_GT(per_rack[r], kLocks / kRacks / 2) << "rack " << r;
    EXPECT_LT(per_rack[r], kLocks / kRacks * 2) << "rack " << r;
  }
}

TEST(LockDirectoryTest, OverridesTakePrecedenceAndClear) {
  LockDirectory directory(4);
  const LockId lock = 77;
  const int home = directory.RackFor(lock);
  const int other = (home + 1) % 4;
  EXPECT_FALSE(directory.HasOverride(lock));

  directory.SetOverride(lock, other);
  EXPECT_TRUE(directory.HasOverride(lock));
  EXPECT_EQ(directory.RackFor(lock), other);
  EXPECT_EQ(directory.num_overrides(), 1u);
  // Other locks keep their hash homes.
  EXPECT_EQ(directory.RackFor(lock + 1),
            LockDirectory::HashRack(lock + 1, 4));

  directory.ClearOverride(lock);
  EXPECT_FALSE(directory.HasOverride(lock));
  EXPECT_EQ(directory.RackFor(lock), home);
}

TEST(LockDirectoryDeathTest, OverrideRackOutOfRangeIsChecked) {
  LockDirectory directory(2);
  EXPECT_DEATH(directory.SetOverride(1, 2), "rack");
}

// --- Sharded testbed harness ---

TestbedConfig ShardedConfig(int num_racks, SimContext* context) {
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.context = context;
  config.client_machines = 4;
  config.sessions_per_machine = 2;
  config.lock_servers = 1;
  config.num_racks = num_racks;
  config.txn_config.think_time = 5 * kMicrosecond;
  return config;
}

TEST(ShardedTestbedTest, TrafficSpreadsAcrossRacksAndStaysSafe) {
  SimContext context;
  TestbedConfig config = ShardedConfig(/*num_racks=*/2, &context);
  MicroConfig micro;
  micro.num_locks = 64;
  micro.locks_per_txn = 2;
  micro.shared_fraction = 0.2;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<OracleSession>(std::move(inner), *oracle);
  };
  Testbed testbed(config);
  testbed.sharded().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  const RunMetrics metrics =
      testbed.Run(/*warmup=*/10 * kMillisecond, /*measure=*/50 * kMillisecond);
  EXPECT_EQ(oracle->violations(), 0u);
  EXPECT_GT(metrics.txn_commits, 100u);
  // Both racks took part: with 64 hashed locks neither side is empty.
  EXPECT_GT(testbed.sharded().SwitchGrants(0) +
                testbed.sharded().ServerGrants(0),
            0u);
  EXPECT_GT(testbed.sharded().SwitchGrants(1) +
                testbed.sharded().ServerGrants(1),
            0u);
  // Aggregate accounting is the sum of the per-rack counters.
  EXPECT_EQ(testbed.sharded().SwitchGrants(),
            testbed.sharded().SwitchGrants(0) +
                testbed.sharded().SwitchGrants(1));
  testbed.StopEngines();
}

TEST(ShardedTestbedTest, PerRackMetricsAndSingleRackStaysUnprefixed) {
  // Multi-rack: every rack's instruments resolve under its own prefix.
  SimContext multi;
  {
    TestbedConfig config = ShardedConfig(/*num_racks=*/2, &multi);
    MicroConfig micro;
    micro.num_locks = 64;
    config.workload_factory = MicroFactory(micro);
    Testbed testbed(config);
    testbed.sharded().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
    testbed.Run(5 * kMillisecond, 20 * kMillisecond);
    testbed.StopEngines();
    EXPECT_GT(
        multi.metrics().Counter("rack0.dataplane.acquires_granted").value(),
        0u);
    EXPECT_GT(
        multi.metrics().Counter("rack1.dataplane.acquires_granted").value(),
        0u);
    EXPECT_EQ(multi.metrics().Counter("dataplane.acquires_granted").value(),
              0u);
  }
  // Single-rack: the historical unprefixed names, and no rack labels.
  SimContext single;
  {
    TestbedConfig config = ShardedConfig(/*num_racks=*/1, &single);
    MicroConfig micro;
    micro.num_locks = 64;
    config.workload_factory = MicroFactory(micro);
    Testbed testbed(config);
    testbed.sharded().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
    testbed.Run(5 * kMillisecond, 20 * kMillisecond);
    testbed.StopEngines();
    EXPECT_GT(
        single.metrics().Counter("dataplane.acquires_granted").value(), 0u);
    EXPECT_EQ(
        single.metrics().Counter("rack0.dataplane.acquires_granted").value(),
        0u);
  }
}

TEST(ShardedTestbedTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    SimContext context;
    TestbedConfig config = ShardedConfig(/*num_racks=*/4, &context);
    config.seed = seed;
    MicroConfig micro;
    micro.num_locks = 256;
    config.workload_factory = MicroFactory(micro);
    Testbed testbed(config);
    testbed.sharded().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
    const RunMetrics metrics =
        testbed.Run(5 * kMillisecond, 20 * kMillisecond);
    testbed.StopEngines();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                      std::uint64_t>(
        metrics.txn_commits, metrics.lock_grants, metrics.switch_grants,
        metrics.server_grants);
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // The seed actually matters.
}

// Regression: ShardedSession used to forward only Acquire and Release. With
// more than one rack, a wound-wait revocation never reached the
// transaction engine (it kept committing on a lock it no longer held), and
// a wounded transaction's in-flight acquire was never cancelled.
TEST(ShardedTestbedTest, WoundsReachEnginesOnEveryRackCount) {
  for (const int num_racks : {1, 2}) {
    SCOPED_TRACE(num_racks);
    SimContext context;
    TestbedConfig config = ShardedConfig(num_racks, &context);
    config.sessions_per_machine = 4;  // 16 sessions.
    config.server_config.deadlock_policy = DeadlockPolicy::kWoundWait;
    config.txn_config.preserve_workload_order = true;
    MicroConfig micro;
    micro.num_locks = 6;
    micro.locks_per_txn = 3;
    config.workload_factory = [micro](int) {
      return std::make_unique<UnorderedMicroWorkload>(micro);
    };
    Testbed testbed(config);
    testbed.Run(/*warmup=*/2 * kMillisecond, /*measure=*/20 * kMillisecond);
    std::uint64_t server_wounds = 0;
    for (int r = 0; r < testbed.sharded().num_racks(); ++r) {
      NetLockManager& rack = testbed.sharded().rack(r);
      for (int s = 0; s < rack.num_servers(); ++s) {
        server_wounds += rack.server(s).stats().wounds;
      }
    }
    std::uint64_t engine_wounds = 0;
    for (int i = 0; i < testbed.num_engines(); ++i) {
      engine_wounds += testbed.engine(i).wounds();
    }
    ASSERT_GT(server_wounds, 0u);
    EXPECT_GT(engine_wounds, 0u);
  }
}

// --- Re-homing under live traffic ---

TEST(RehomeTest, RehomeUnderLoadPreservesMutualExclusion) {
  SimContext context;
  TestbedConfig config = ShardedConfig(/*num_racks=*/2, &context);
  MicroConfig micro;
  micro.num_locks = 16;  // Heavy contention so the moved lock is busy.
  micro.locks_per_txn = 2;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<OracleSession>(std::move(inner), *oracle);
  };
  Testbed testbed(config);
  ShardedNetLock& sharded = testbed.sharded();
  sharded.InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  testbed.StartEngines();
  testbed.sim().RunUntil(testbed.sim().now() + 10 * kMillisecond);

  // Re-home every fourth lock to the other rack, mid-traffic.
  int done_count = 0;
  for (LockId lock = 0; lock < micro.num_locks; lock += 4) {
    const int target = 1 - sharded.directory().RackFor(lock);
    sharded.RehomeLock(lock, target, [&done_count]() { ++done_count; });
  }
  testbed.sim().RunUntil(testbed.sim().now() + 60 * kMillisecond);
  EXPECT_EQ(done_count, 4);
  EXPECT_EQ(sharded.rehomes_completed(), 4u);
  for (LockId lock = 0; lock < micro.num_locks; lock += 4) {
    EXPECT_TRUE(sharded.directory().HasOverride(lock)) << "lock " << lock;
  }

  // Traffic keeps flowing after the moves and was safe throughout.
  testbed.SetRecording(true);
  testbed.sim().RunUntil(testbed.sim().now() + 20 * kMillisecond);
  testbed.SetRecording(false);
  const RunMetrics after = testbed.Collect(20 * kMillisecond);
  EXPECT_GT(after.txn_commits, 50u);
  EXPECT_EQ(oracle->violations(), 0u);
  EXPECT_EQ(oracle->fifo_violations(), 0u);
  testbed.StopEngines();
}

TEST(RehomeTest, RehomeToSameRackOrDuplicateIsANoOp) {
  SimContext context;
  TestbedConfig config = ShardedConfig(/*num_racks=*/2, &context);
  MicroConfig micro;
  micro.num_locks = 16;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  ShardedNetLock& sharded = testbed.sharded();
  sharded.InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  const LockId lock = 3;
  const int home = sharded.directory().RackFor(lock);
  bool same_rack_done = false;
  sharded.RehomeLock(lock, home, [&]() { same_rack_done = true; });
  EXPECT_TRUE(same_rack_done);  // Immediate: nothing to move.
  EXPECT_FALSE(sharded.directory().HasOverride(lock));

  testbed.StartEngines();
  testbed.sim().RunUntil(testbed.sim().now() + 5 * kMillisecond);
  int done_count = 0;
  sharded.RehomeLock(lock, 1 - home, [&]() { ++done_count; });
  // A second request while the first drains completes immediately
  // without starting a competing migration.
  sharded.RehomeLock(lock, 1 - home, [&]() { ++done_count; });
  EXPECT_GE(done_count, 1);
  testbed.sim().RunUntil(testbed.sim().now() + 40 * kMillisecond);
  EXPECT_EQ(done_count, 2);
  EXPECT_EQ(sharded.rehomes_completed(), 1u);
  testbed.StopEngines();
}

// Regression (fuzz find): a re-home staged a lock on a switch that was
// down, then the switch restarted. The restart reinstalled only the locks
// its control plane knew of, so the staged lock vanished, and activating it
// at the end of the re-home aborted the process. Staging now goes through
// the target's control plane: the restart reinstalls the lock suspended and
// leaves its activation to the re-home, under the restart grace.
TEST(RehomeTest, RehomeOntoARestartingSwitchSurvivesTheRestart) {
  SimContext context;
  TestbedConfig config = ShardedConfig(/*num_racks=*/2, &context);
  config.lease = 5 * kMillisecond;
  config.lease_poll_interval = kMillisecond;
  config.client_retry_timeout = kMillisecond;
  MicroConfig micro;
  micro.num_locks = 16;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<OracleSession>(std::move(inner), *oracle);
  };
  Testbed testbed(config);
  ShardedNetLock& sharded = testbed.sharded();
  sharded.InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  LockId lock = 0;
  while (sharded.directory().RackFor(lock) != 1) ++lock;
  ASSERT_TRUE(sharded.rack(1).lock_switch().IsInstalled(lock));
  ControlPlane& target = sharded.rack(0).control_plane();

  testbed.StartEngines();
  testbed.sim().RunUntil(testbed.sim().now() + 5 * kMillisecond);
  target.FailSwitch();
  bool done = false;
  sharded.RehomeLock(lock, 0, [&]() { done = true; });
  target.RecoverSwitch();  // Restarts while the source still drains.
  testbed.sim().RunUntil(testbed.sim().now() + 30 * kMillisecond);
  EXPECT_TRUE(done);
  LockSwitch& target_switch = sharded.rack(0).lock_switch();
  EXPECT_TRUE(target_switch.IsInstalled(lock));
  EXPECT_FALSE(target_switch.IsSuspended(lock));
  testbed.StopEngines();
  EXPECT_EQ(oracle->violations(), 0u);
}

// Regression (fuzz find): after a lock was re-homed away, the source rack's
// control plane still planned it (its demand model remembered the lock) and
// moved it back onto its own switch. A later re-home back to that rack then
// found it already installed there and aborted. A rack's migrations only
// touch the locks the directory homes on it.
TEST(RehomeTest, SourceRackLeavesARehomedLockAlone) {
  SimContext context;
  TestbedConfig config = ShardedConfig(/*num_racks=*/2, &context);
  MicroConfig micro;
  micro.num_locks = 16;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  ShardedNetLock& sharded = testbed.sharded();
  sharded.InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  LockId lock = 0;
  while (sharded.directory().RackFor(lock) != 1) ++lock;
  ASSERT_TRUE(sharded.rack(1).lock_switch().IsInstalled(lock));

  testbed.StartEngines();
  testbed.sim().RunUntil(testbed.sim().now() + 5 * kMillisecond);
  int done_count = 0;
  sharded.RehomeLock(lock, 0, [&]() { ++done_count; });
  testbed.sim().RunUntil(testbed.sim().now() + 20 * kMillisecond);
  ASSERT_EQ(done_count, 1);
  ASSERT_FALSE(sharded.rack(1).lock_switch().IsInstalled(lock));

  // The source rack's plan still wants the lock on its switch.
  ControlPlane& source = sharded.rack(1).control_plane();
  Allocation plan = source.installed();
  plan.switch_slots.emplace_back(lock, 4);
  bool applied = false;
  ASSERT_TRUE(source.ApplyAllocation(plan, [&]() { applied = true; }));
  testbed.sim().RunUntil(testbed.sim().now() + 20 * kMillisecond);
  EXPECT_TRUE(applied);
  EXPECT_FALSE(sharded.rack(1).lock_switch().IsInstalled(lock));

  // So the lock can move back.
  sharded.RehomeLock(lock, 1, [&]() { ++done_count; });
  testbed.sim().RunUntil(testbed.sim().now() + 20 * kMillisecond);
  EXPECT_EQ(done_count, 2);
  EXPECT_TRUE(sharded.rack(1).lock_switch().IsInstalled(lock));
  testbed.StopEngines();
}

TEST(ShardedTestbedTest, ProfileAndInstallCoversEveryRack) {
  SimContext context;
  TestbedConfig config = ShardedConfig(/*num_racks=*/2, &context);
  MicroConfig micro;
  micro.num_locks = 128;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  const std::vector<LockDemand> demands =
      ProfileAndInstall(testbed, config.switch_config.queue_capacity);
  EXPECT_FALSE(demands.empty());
  const RunMetrics metrics = testbed.Run(5 * kMillisecond, 30 * kMillisecond);
  EXPECT_GT(metrics.txn_commits, 100u);
  // The profiled install put hot locks on both switches.
  EXPECT_GT(testbed.sharded().SwitchGrants(0), 0u);
  EXPECT_GT(testbed.sharded().SwitchGrants(1), 0u);
  testbed.StopEngines();
}

}  // namespace
}  // namespace netlock
