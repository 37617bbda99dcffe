// Tests for session-level routing behaviours: grant-source release routing
// (the failover-critical rule), switch re-pointing, and conflict-unit
// ordering in the engines. The unsolicited-grant release target is tested
// on both session routes in client_test.
#include <gtest/gtest.h>

#include "client/client.h"
#include "client/txn.h"
#include "dataplane/switch_dataplane.h"
#include "test_util.h"
#include "workload/micro.h"

namespace netlock {
namespace {

using testing::PacketCatcher;

class SessionRoutingTest : public ::testing::Test {
 protected:
  SessionRoutingTest() : net_(sim_, 1000) {
    LockSwitchConfig config;
    config.queue_capacity = 256;
    config.array_size = 64;
    config.max_locks = 16;
    switch_a_ = std::make_unique<LockSwitch>(net_, config);
    switch_b_ = std::make_unique<LockSwitch>(net_, config);
    server_ = std::make_unique<PacketCatcher>(net_);
    machine_ = std::make_unique<ClientMachine>(net_);
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockSwitch> switch_a_;
  std::unique_ptr<LockSwitch> switch_b_;
  std::unique_ptr<PacketCatcher> server_;
  std::unique_ptr<ClientMachine> machine_;
};

TEST_F(SessionRoutingTest, ReleaseGoesToGrantingSwitch) {
  ASSERT_TRUE(switch_a_->InstallLock(1, server_->node(), 8));
  ASSERT_TRUE(switch_b_->InstallLock(1, server_->node(), 8));
  NetLockSession::Config config;
  config.switch_node = switch_a_->node();
  NetLockSession session(*machine_, config);
  bool granted = false;
  session.Acquire(1, LockMode::kExclusive, 1, 0,
                  [&](AcquireResult) { granted = true; });
  sim_.RunUntil(kMillisecond);
  ASSERT_TRUE(granted);
  // Re-point the session (failover) BEFORE releasing: the release must
  // still reach switch A, which granted the lock.
  session.set_switch_node(switch_b_->node());
  session.Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(switch_a_->stats().releases, 1u);
  EXPECT_EQ(switch_b_->stats().stale_releases, 0u);
  // New acquires go to switch B.
  session.Acquire(1, LockMode::kExclusive, 2, 0, [](AcquireResult) {});
  sim_.RunUntil(3 * kMillisecond);
  EXPECT_EQ(switch_b_->stats().grants, 1u);
}

namespace {
/// A session whose conflict unit is lock/4 (models coarse cells). Grants
/// are delivered asynchronously (as real sessions do) so the closed-loop
/// engine cannot recurse unboundedly within one event.
class CoarseSession : public LockSession {
 public:
  CoarseSession(Simulator& sim, std::vector<LockId>* order)
      : sim_(sim), order_(order) {}
  void Acquire(LockId lock, LockMode, TxnId, Priority,
               AcquireCallback cb) override {
    order_->push_back(lock);
    sim_.Schedule(1, [cb = std::move(cb)]() {
      cb(AcquireResult::kGranted);
    });
  }
  void Release(LockId, LockMode, TxnId) override {}
  NodeId node() const override { return 0; }
  LockId ConflictUnit(LockId lock) const override { return lock / 4; }

 private:
  Simulator& sim_;
  std::vector<LockId>* order_;
};

class FixedWorkload : public WorkloadGenerator {
 public:
  explicit FixedWorkload(TxnSpec spec) : spec_(std::move(spec)) {}
  void NextInto(Rng&, TxnSpec& out) override { out = spec_; }
  LockId lock_space() const override { return 100; }

 private:
  TxnSpec spec_;
};
}  // namespace

TEST(ConflictUnitOrderingTest, EngineDeduplicatesAndOrdersByUnit) {
  Simulator sim;
  std::vector<LockId> order;
  CoarseSession session(sim, &order);
  TxnSpec spec;
  // Locks 9 and 10 share unit 2; 1 is unit 0; 20 is unit 5.
  spec.locks = {{20, LockMode::kExclusive},
                {9, LockMode::kShared},
                {1, LockMode::kExclusive},
                {10, LockMode::kExclusive}};
  TxnEngineConfig config;
  config.think_time = 0;
  TxnEngine engine(sim, session, std::make_unique<FixedWorkload>(spec), 1,
                   1, config);
  engine.Start();
  sim.RunUntil(10);
  engine.Stop();
  // First transaction's acquisition order: unit-ascending, one per unit
  // (9/10 merged — exclusive wins the merge).
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 10u);  // Exclusive 10 subsumes shared 9 in unit 2.
  EXPECT_EQ(order[2], 20u);
}

}  // namespace
}  // namespace netlock
