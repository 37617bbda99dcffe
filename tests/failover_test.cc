// Tests for backup-switch failover (paper Section 4.5): suspended-mode
// queueing, lease-gated backup activation, release routing to the grantor,
// per-lock primary activation as the backup drains, and end-to-end
// continuity of service with the safety oracle attached.
#include <gtest/gtest.h>

#include "core/control_plane.h"
#include "core/netlock.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "testing/lock_oracle.h"
#include "test_util.h"

namespace netlock {
namespace {

using testing::MakeAcquire;
using testing::MakeRelease;
using testing::PacketCatcher;

TEST(SuspendedModeTest, QueuesWithoutGranting) {
  Simulator sim;
  Network net(sim, 1000);
  LockSwitchConfig config;
  config.queue_capacity = 64;
  config.array_size = 32;
  config.max_locks = 8;
  LockSwitch lock_switch(net, config);
  PacketCatcher client(net);
  PacketCatcher server(net);
  ASSERT_TRUE(lock_switch.InstallLock(1, server.node(), 8,
                                      /*suspended=*/true));
  EXPECT_TRUE(lock_switch.IsSuspended(1));
  lock_switch.HandlePacket(MakeLockPacket(
      client.node(), lock_switch.node(),
      MakeAcquire(1, LockMode::kExclusive, 1, client.node())));
  sim.Run();
  EXPECT_FALSE(client.HasGrantFor(1));
  EXPECT_FALSE(lock_switch.QueueEmpty(1));
  // A stale release must not dequeue the suspended waiter.
  lock_switch.HandlePacket(MakeLockPacket(
      client.node(), lock_switch.node(),
      MakeRelease(1, LockMode::kExclusive, 99, client.node())));
  sim.Run();
  EXPECT_EQ(lock_switch.stats().stale_releases, 1u);
  EXPECT_FALSE(lock_switch.QueueEmpty(1));
  // Activation grants the head.
  lock_switch.Activate(1);
  sim.Run();
  EXPECT_TRUE(client.HasGrantFor(1));
  EXPECT_FALSE(lock_switch.IsSuspended(1));
}

TEST(SuspendedModeTest, ActivationGrantsSharedBatch) {
  Simulator sim;
  Network net(sim, 1000);
  LockSwitchConfig config;
  config.queue_capacity = 64;
  config.array_size = 32;
  config.max_locks = 8;
  LockSwitch lock_switch(net, config);
  PacketCatcher client(net);
  PacketCatcher server(net);
  ASSERT_TRUE(lock_switch.InstallLock(1, server.node(), 16, true));
  for (TxnId txn = 1; txn <= 3; ++txn) {
    lock_switch.HandlePacket(MakeLockPacket(
        client.node(), lock_switch.node(),
        MakeAcquire(1, LockMode::kShared, txn, client.node())));
  }
  lock_switch.HandlePacket(MakeLockPacket(
      client.node(), lock_switch.node(),
      MakeAcquire(1, LockMode::kExclusive, 4, client.node())));
  sim.Run();
  EXPECT_TRUE(client.Grants().empty());
  lock_switch.Activate(1);
  sim.Run();
  EXPECT_TRUE(client.HasGrantFor(1));
  EXPECT_TRUE(client.HasGrantFor(2));
  EXPECT_TRUE(client.HasGrantFor(3));
  EXPECT_FALSE(client.HasGrantFor(4));  // Exclusive waits for the batch.
  // And the normal release machinery takes over.
  for (TxnId txn = 1; txn <= 3; ++txn) {
    lock_switch.HandlePacket(MakeLockPacket(
        client.node(), lock_switch.node(),
        MakeRelease(1, LockMode::kShared, txn, client.node())));
    sim.Run();
  }
  EXPECT_TRUE(client.HasGrantFor(4));
}

class FailoverEndToEndTest : public ::testing::Test {
 protected:
  FailoverEndToEndTest() {
    config_.system = SystemKind::kNetLock;
    config_.client_machines = 2;
    config_.sessions_per_machine = 4;
    config_.lock_servers = 2;
    config_.client_retry_timeout = kMillisecond;
    config_.lease = 5 * kMillisecond;
    config_.lease_poll_interval = kMillisecond;
    config_.txn_config.think_time = 5 * kMicrosecond;
    MicroConfig micro;
    micro.num_locks = 64;
    config_.workload_factory = MicroFactory(micro);
    oracle_ = std::make_shared<testing::LockOracle>();
    config_.session_wrapper =
        [this](std::unique_ptr<LockSession> inner) {
          raw_sessions_.push_back(
              static_cast<NetLockSession*>(inner.get()));
          return std::make_unique<testing::OracleSession>(std::move(inner),
                                                          *oracle_);
        };
  }

  TestbedConfig config_;
  std::shared_ptr<testing::LockOracle> oracle_;
  std::vector<NetLockSession*> raw_sessions_;
};

TEST_F(FailoverEndToEndTest, ServiceContinuesThroughFailover) {
  Testbed testbed(config_);
  MicroConfig micro;
  micro.num_locks = 64;
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  // Stand up the backup switch at the same rack position.
  LockSwitch backup(testbed.net(), config_.switch_config);
  for (NetLockSession* s : raw_sessions_) {
    testbed.net().SetLatency(s->node(), backup.node(), 2500);
  }
  for (int i = 0; i < testbed.netlock().num_servers(); ++i) {
    testbed.net().SetLatency(backup.node(),
                             testbed.netlock().server(i).node(), 1500);
  }
  ControlPlane& failover = testbed.netlock().control_plane();
  failover.AttachStandby(backup, ControlPlane::Standby::kCold);
  for (NetLockSession* s : raw_sessions_) failover.RegisterSession(s);

  testbed.StartEngines();
  testbed.sim().RunUntil(30 * kMillisecond);
  const std::uint64_t commits_before = [&] {
    std::uint64_t total = 0;
    for (int i = 0; i < testbed.num_engines(); ++i) {
      testbed.engine(i).SetRecording(true);
      total += testbed.engine(i).metrics().txn_commits;
    }
    return total;
  }();
  (void)commits_before;

  // Fail over to the backup.
  failover.FailSwitch();
  EXPECT_EQ(failover.active_switch(), backup.node());
  testbed.sim().RunUntil(80 * kMillisecond);
  std::uint64_t commits_backup = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits_backup += testbed.engine(i).metrics().txn_commits;
  }
  EXPECT_GT(commits_backup, 1000u);  // Backup is serving.
  EXPECT_GT(backup.stats().grants, 0u);

  // Recover the primary; the backup drains then goes cold.
  bool recovered = false;
  failover.RecoverSwitch([&]() { recovered = true; });
  testbed.sim().RunUntil(150 * kMillisecond);
  EXPECT_TRUE(recovered);
  EXPECT_FALSE(failover.standby_active());
  EXPECT_EQ(failover.active_switch(),
            testbed.netlock().lock_switch().node());

  std::uint64_t commits_final = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits_final += testbed.engine(i).metrics().txn_commits;
  }
  EXPECT_GT(commits_final, commits_backup + 1000u);  // Primary serving.
  EXPECT_EQ(oracle_->violations(), 0u);  // Safety held throughout.
  testbed.StopEngines(kSecond);
}

// Regression: with more locks allocated than the switch table holds, the
// control plane recorded the refused locks as switch-resident too, and
// FailSwitch's replication onto the (equally sized) backup aborted on
// the first lock past its capacity. Only the locks the primary took are
// replicated; the rest stay with their home servers throughout.
TEST_F(FailoverEndToEndTest, FailoverReplicatesOnlyLocksThePrimaryHolds) {
  config_.switch_config.max_locks = 8;
  MicroConfig micro;
  micro.num_locks = 16;
  config_.workload_factory = MicroFactory(micro);
  Testbed testbed(config_);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  const ControlPlane& control = testbed.netlock().control_plane();
  ASSERT_EQ(testbed.netlock().lock_switch().table().num_installed(), 8u);
  EXPECT_EQ(control.installed().switch_slots.size(), 8u);
  EXPECT_EQ(control.installed().server_only.size(), 8u);

  LockSwitch backup(testbed.net(), config_.switch_config);
  for (NetLockSession* s : raw_sessions_) {
    testbed.net().SetLatency(s->node(), backup.node(), 2500);
  }
  for (int i = 0; i < testbed.netlock().num_servers(); ++i) {
    testbed.net().SetLatency(backup.node(),
                             testbed.netlock().server(i).node(), 1500);
  }
  ControlPlane& failover = testbed.netlock().control_plane();
  failover.AttachStandby(backup, ControlPlane::Standby::kCold);
  for (NetLockSession* s : raw_sessions_) failover.RegisterSession(s);
  testbed.StartEngines();
  testbed.sim().RunUntil(20 * kMillisecond);
  failover.FailSwitch();
  EXPECT_EQ(backup.table().num_installed(), 8u);
  for (int i = 0; i < testbed.num_engines(); ++i) {
    testbed.engine(i).SetRecording(true);
  }
  testbed.sim().RunUntil(60 * kMillisecond);
  std::uint64_t commits = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits += testbed.engine(i).metrics().txn_commits;
  }
  EXPECT_GT(commits, 100u);  // Backup and servers keep serving.
  EXPECT_GT(backup.stats().grants, 0u);
  EXPECT_EQ(oracle_->violations(), 0u);
  testbed.StopEngines(kSecond);
}

// Edge case: the primary recovers while the backup still holds non-empty
// queues. The backup must keep granting its queued work (releases route to
// the grantor), hand each lock back only once its queue drains, and report
// drained exactly once — all without a safety violation.
TEST_F(FailoverEndToEndTest, RecoveryWithNonEmptyBackupQueuesDrainsInOrder) {
  MicroConfig micro;
  micro.num_locks = 4;  // Heavy contention: backup queues stay populated.
  config_.workload_factory = MicroFactory(micro);
  Testbed testbed(config_);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  LockSwitch backup(testbed.net(), config_.switch_config);
  for (NetLockSession* s : raw_sessions_) {
    testbed.net().SetLatency(s->node(), backup.node(), 2500);
  }
  for (int i = 0; i < testbed.netlock().num_servers(); ++i) {
    testbed.net().SetLatency(backup.node(),
                             testbed.netlock().server(i).node(), 1500);
  }
  ControlPlane& failover = testbed.netlock().control_plane();
  failover.AttachStandby(backup, ControlPlane::Standby::kCold);
  for (NetLockSession* s : raw_sessions_) failover.RegisterSession(s);
  testbed.StartEngines();
  testbed.sim().RunUntil(10 * kMillisecond);
  failover.FailSwitch();
  testbed.sim().RunUntil(25 * kMillisecond);  // Past the lease: serving.
  const std::uint64_t grants_at_recovery = backup.stats().grants;
  EXPECT_GT(grants_at_recovery, 0u);
  bool drained = false;
  failover.RecoverSwitch([&]() { drained = true; });
  // New acquires go to the primary immediately, but the backup stays
  // active until its queues empty.
  EXPECT_EQ(failover.active_switch(),
            testbed.netlock().lock_switch().node());
  EXPECT_TRUE(failover.standby_active());
  testbed.sim().RunUntil(150 * kMillisecond);
  EXPECT_TRUE(drained);
  EXPECT_FALSE(failover.standby_active());
  // The backup granted queued work during the drain window.
  EXPECT_GT(backup.stats().grants, grants_at_recovery);
  EXPECT_EQ(oracle_->violations(), 0u);
  testbed.StopEngines(kSecond);
}

// Edge case: the primary fails AGAIN while the backup is still draining
// from the previous failover. The superseded recovery's callback must
// never fire, the backup keeps serving, and a later recovery completes
// normally — still with zero oracle violations.
TEST_F(FailoverEndToEndTest, SecondFailureDuringDrainSupersedesRecovery) {
  MicroConfig micro;
  micro.num_locks = 4;
  config_.workload_factory = MicroFactory(micro);
  Testbed testbed(config_);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  LockSwitch backup(testbed.net(), config_.switch_config);
  for (NetLockSession* s : raw_sessions_) {
    testbed.net().SetLatency(s->node(), backup.node(), 2500);
  }
  for (int i = 0; i < testbed.netlock().num_servers(); ++i) {
    testbed.net().SetLatency(backup.node(),
                             testbed.netlock().server(i).node(), 1500);
  }
  ControlPlane& failover = testbed.netlock().control_plane();
  failover.AttachStandby(backup, ControlPlane::Standby::kCold);
  for (NetLockSession* s : raw_sessions_) failover.RegisterSession(s);
  testbed.StartEngines();
  testbed.sim().RunUntil(10 * kMillisecond);
  failover.FailSwitch();
  testbed.sim().RunUntil(25 * kMillisecond);
  bool first_recovery_done = false;
  failover.RecoverSwitch([&]() { first_recovery_done = true; });
  // Let part of the drain happen: the backup serves queued work while new
  // acquires already target the restarted primary. Stay inside the first
  // drain poll (100 us) so the recovery is still pending.
  testbed.sim().RunUntil(testbed.sim().now() + 50 * kMicrosecond);
  ASSERT_TRUE(failover.standby_active());  // Mid-drain, not after it.
  // ...then the primary dies again mid-drain.
  failover.FailSwitch();
  EXPECT_EQ(failover.active_switch(), backup.node());
  testbed.sim().RunUntil(60 * kMillisecond);
  EXPECT_FALSE(first_recovery_done);  // Superseded: must never fire.
  EXPECT_TRUE(failover.standby_active());
  // The second recovery completes normally.
  bool second_recovery_done = false;
  failover.RecoverSwitch([&]() { second_recovery_done = true; });
  testbed.sim().RunUntil(200 * kMillisecond);
  EXPECT_TRUE(second_recovery_done);
  EXPECT_FALSE(failover.standby_active());
  EXPECT_EQ(failover.active_switch(),
            testbed.netlock().lock_switch().node());
  EXPECT_EQ(oracle_->violations(), 0u);
  testbed.StopEngines(kSecond);
}

TEST_F(FailoverEndToEndTest, BackupActivationWaitsForLease) {
  Testbed testbed(config_);
  MicroConfig micro;
  micro.num_locks = 64;
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  LockSwitch backup(testbed.net(), config_.switch_config);
  for (NetLockSession* s : raw_sessions_) {
    testbed.net().SetLatency(s->node(), backup.node(), 2500);
  }
  ControlPlane& failover = testbed.netlock().control_plane();
  failover.AttachStandby(backup, ControlPlane::Standby::kCold);
  for (NetLockSession* s : raw_sessions_) failover.RegisterSession(s);
  testbed.StartEngines();
  testbed.sim().RunUntil(10 * kMillisecond);
  failover.FailSwitch();
  // Within the lease window the backup must not have granted anything.
  testbed.sim().RunUntil(testbed.sim().now() + 3 * kMillisecond);
  EXPECT_EQ(backup.stats().grants, 0u);
  // After the lease the backup serves.
  testbed.sim().RunUntil(testbed.sim().now() + 20 * kMillisecond);
  EXPECT_GT(backup.stats().grants, 0u);
  EXPECT_EQ(oracle_->violations(), 0u);
  testbed.StopEngines(kSecond);
}

TEST_F(FailoverEndToEndTest, EarlyRecoveryInheritsPrimaryLeaseGrace) {
  // Regression: RecoverSwitch issued before FailSwitch's one-lease grace
  // elapsed found the (never-activated) backup's queues empty and activated
  // the primary's locks immediately — overlapping grants the old primary
  // issued just before the failure, whose releases died with it. The
  // recovered primary must inherit the remainder of the grace.
  Testbed testbed(config_);
  MicroConfig micro;
  micro.num_locks = 64;
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  LockSwitch backup(testbed.net(), config_.switch_config);
  for (NetLockSession* s : raw_sessions_) {
    testbed.net().SetLatency(s->node(), backup.node(), 2500);
  }
  ControlPlane& failover = testbed.netlock().control_plane();
  failover.AttachStandby(backup, ControlPlane::Standby::kCold);
  for (NetLockSession* s : raw_sessions_) failover.RegisterSession(s);
  testbed.StartEngines();
  testbed.sim().RunUntil(10 * kMillisecond);
  failover.FailSwitch();
  // Fail back long before the 5 ms lease grace is up.
  testbed.sim().RunUntil(testbed.sim().now() + 500 * kMicrosecond);
  bool recovered = false;
  failover.RecoverSwitch([&]() { recovered = true; });
  const std::uint64_t grants_at_recovery =
      testbed.netlock().lock_switch().stats().grants;
  // Within the remaining grace the primary must not grant: leases of the
  // pre-failure holders are still live.
  testbed.sim().RunUntil(testbed.sim().now() + 3 * kMillisecond);
  EXPECT_EQ(testbed.netlock().lock_switch().stats().grants,
            grants_at_recovery);
  // Once the grace ends the primary serves again, safely.
  testbed.sim().RunUntil(testbed.sim().now() + 40 * kMillisecond);
  EXPECT_TRUE(recovered);
  EXPECT_GT(testbed.netlock().lock_switch().stats().grants,
            grants_at_recovery);
  EXPECT_EQ(oracle_->violations(), 0u);
  testbed.StopEngines(kSecond);
}

}  // namespace
}  // namespace netlock
