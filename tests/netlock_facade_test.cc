// Tests for the NetLockManager public facade: construction, allocation
// installation, session creation (and the lease sessions inherit), grant
// attribution, and the quickstart usage pattern from the README.
#include <gtest/gtest.h>

#include "client/client.h"
#include "core/netlock.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace netlock {
namespace {

class FacadeTest : public ::testing::Test {
 protected:
  FacadeTest() : net_(sim_, 2500) {}

  Simulator sim_;
  Network net_;
};

TEST_F(FacadeTest, QuickstartFlow) {
  NetLockOptions options;
  options.num_servers = 2;
  NetLockManager manager(net_, options);
  manager.InstallKnapsack({{7, 2e5, 4}, {8, 1e3, 2}});
  EXPECT_TRUE(manager.lock_switch().IsInstalled(7));
  EXPECT_TRUE(manager.lock_switch().IsInstalled(8));

  ClientMachine machine(net_);
  auto session = manager.CreateSession(machine);
  net_.SetLatency(session->node(), manager.lock_switch().node(), 2500);
  AcquireResult result = AcquireResult::kTimeout;
  session->Acquire(7, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(result, AcquireResult::kGranted);
  session->Release(7, LockMode::kExclusive, 1);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(manager.SwitchGrants(), 1u);
  EXPECT_EQ(manager.ServerGrants(), 0u);
}

TEST_F(FacadeTest, ServerServesUninstalledLocks) {
  NetLockManager manager(net_, NetLockOptions{});
  manager.InstallKnapsack({{1, 100.0, 2}});
  ClientMachine machine(net_);
  auto session = manager.CreateSession(machine);
  net_.SetLatency(session->node(), manager.lock_switch().node(), 2500);
  AcquireResult result = AcquireResult::kTimeout;
  session->Acquire(999, LockMode::kShared, 5, 0,
                   [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(result, AcquireResult::kGranted);
  EXPECT_EQ(manager.ServerGrants(), 1u);
  EXPECT_EQ(manager.SwitchGrants(), 0u);
}

TEST_F(FacadeTest, TenantPlumbedThroughSessions) {
  NetLockManager manager(net_, NetLockOptions{});
  manager.InstallKnapsack({{1, 100.0, 4}});
  manager.lock_switch().quota().Configure(/*tenant=*/9, /*rate=*/1.0,
                                          /*burst=*/1);
  ClientMachine machine(net_);
  auto session = manager.CreateSession(machine, /*tenant=*/9);
  net_.SetLatency(session->node(), manager.lock_switch().node(), 2500);
  int granted = 0;
  session->Acquire(1, LockMode::kShared, 1, 0,
                   [&](AcquireResult r) { granted += r == AcquireResult::kGranted; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(granted, 1);
  // Burst exhausted: the next request is throttled.
  session->Acquire(1, LockMode::kShared, 2, 0, [&](AcquireResult) {});
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_GE(manager.lock_switch().stats().rejected_quota, 1u);
}

// One lease governs the switch and its clients (§4.5). A session takes the
// control plane's lease, so a grant held past lease - margin is not
// released by the client (its release could race the sweep's forced
// release and pop another waiter's entry); the lease sweep reclaims it.
TEST_F(FacadeTest, SessionsTakeTheControlPlaneLease) {
  NetLockOptions options;
  options.control_config.lease = 5 * kMillisecond;
  options.control_config.lease_poll_interval = kMillisecond;
  NetLockManager manager(net_, options);
  manager.InstallKnapsack({{7, 2e5, 4}});
  LockSwitch& sw = manager.lock_switch();
  ClientMachine machine(net_);
  auto session = manager.CreateSession(machine);
  net_.SetLatency(session->node(), sw.node(), 2500);
  SimTime granted_at = 0;
  session->Acquire(7, LockMode::kExclusive, 1, 0, [&](AcquireResult r) {
    if (r == AcquireResult::kGranted) granted_at = sim_.now();
  });
  sim_.RunUntil(100 * kMicrosecond);
  ASSERT_GT(granted_at, 0u);

  sim_.RunUntil(granted_at + 4950 * kMicrosecond);
  session->Release(7, LockMode::kExclusive, 1);
  sim_.RunUntil(sim_.now() + 50 * kMicrosecond);
  EXPECT_EQ(static_cast<NetLockSession&>(*session).releases_suppressed(), 1u);
  EXPECT_EQ(sw.stats().releases, 0u);
  EXPECT_FALSE(sw.QueueEmpty(7));

  sim_.RunUntil(granted_at + 7 * kMillisecond);
  EXPECT_TRUE(sw.QueueEmpty(7));
}

TEST_F(FacadeTest, MultipleManagersCoexistOnOneNetwork) {
  NetLockManager rack0(net_, NetLockOptions{});
  NetLockManager rack1(net_, NetLockOptions{});
  rack0.InstallKnapsack({{1, 100.0, 2}});
  rack1.InstallKnapsack({{1, 100.0, 2}});  // Same id, different instance.
  ClientMachine machine(net_);
  auto s0 = rack0.CreateSession(machine);
  auto s1 = rack1.CreateSession(machine);
  net_.SetLatency(s0->node(), rack0.lock_switch().node(), 2500);
  net_.SetLatency(s1->node(), rack1.lock_switch().node(), 2500);
  int grants = 0;
  s0->Acquire(1, LockMode::kExclusive, 1, 0,
              [&](AcquireResult) { ++grants; });
  s1->Acquire(1, LockMode::kExclusive, 2, 0,
              [&](AcquireResult) { ++grants; });
  sim_.RunUntil(kMillisecond);
  // Both exclusive grants succeed: the racks are independent instances.
  EXPECT_EQ(grants, 2);
}

}  // namespace
}  // namespace netlock
