// Extended data-plane tests: demand-counter harvesting with one and with
// several priority classes, suspended-mode interaction with overflow and
// activation, quota and pausing with classes, priority-class overflow and
// its drain, class regions beyond 64 slots, and region accounting across
// install cycles.
#include <gtest/gtest.h>

#include "dataplane/switch_dataplane.h"
#include "server/lock_server.h"
#include "test_util.h"

namespace netlock {
namespace {

using testing::MakeAcquire;
using testing::MakeRelease;
using testing::PacketCatcher;

class ExtendedFixture : public ::testing::Test {
 protected:
  explicit ExtendedFixture(std::uint8_t priorities = 1)
      : net_(sim_, 1000) {
    LockSwitchConfig config;
    config.queue_capacity = 512;
    config.array_size = 128;
    config.max_locks = 32;
    config.num_priorities = priorities;
    switch_ = std::make_unique<LockSwitch>(net_, config);
    client_ = std::make_unique<PacketCatcher>(net_);
    server_ = std::make_unique<LockServer>(net_, LockServerConfig{});
    server_->set_switch_node(switch_->node());
  }

  void Send(const LockHeader& hdr) {
    net_.Send(MakeLockPacket(client_->node(), switch_->node(), hdr));
    sim_.Run();
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockSwitch> switch_;
  std::unique_ptr<PacketCatcher> client_;
  std::unique_ptr<LockServer> server_;
};

class DefaultPathExtendedTest : public ExtendedFixture {};

TEST_F(DefaultPathExtendedTest, SwitchHarvestCountsRatesAndContention) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 16));
  // 5 concurrent exclusive requests: r = 5, c = 5.
  for (TxnId txn = 0; txn < 5; ++txn) {
    Send(MakeAcquire(1, LockMode::kExclusive, txn, client_->node()));
  }
  std::vector<LockDemand> demands;
  switch_->HarvestDemands(/*window_sec=*/1.0, demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_DOUBLE_EQ(demands[0].rate, 5.0);
  EXPECT_EQ(demands[0].contention, 5u);
  // Harvest resets the rate counter but contention floor follows the
  // current occupancy.
  demands.clear();
  switch_->HarvestDemands(1.0, demands);
  EXPECT_DOUBLE_EQ(demands[0].rate, 0.0);
  EXPECT_EQ(demands[0].contention, 5u);
}

TEST_F(DefaultPathExtendedTest, SuspendedLockStillOverflowsWhenFull) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 2,
                                   /*suspended=*/true));
  for (TxnId txn = 0; txn < 4; ++txn) {
    Send(MakeAcquire(1, LockMode::kExclusive, txn, client_->node()));
  }
  // Two queued (no grants), two in q2.
  EXPECT_TRUE(client_->Grants().empty());
  EXPECT_EQ(server_->OverflowDepth(1), 2u);
  // Activation grants the head; the drain then pulls q2 through normally.
  switch_->Activate(1);
  sim_.Run();
  EXPECT_TRUE(client_->HasGrantFor(0));
  std::vector<TxnId> order;
  for (int round = 0; round < 16 && order.size() < 4; ++round) {
    for (const auto& g : client_->Grants()) {
      if (std::find(order.begin(), order.end(), g.txn_id) == order.end()) {
        order.push_back(g.txn_id);
        Send(MakeRelease(1, LockMode::kExclusive, g.txn_id,
                         client_->node()));
      }
    }
  }
  EXPECT_EQ(order, (std::vector<TxnId>{0, 1, 2, 3}));
}

class PriorityExtendedTest : public ExtendedFixture {
 protected:
  PriorityExtendedTest() : ExtendedFixture(/*priorities=*/2) {}
};

// Priority path's validated release: a release from a transaction that is
// not the current exclusive holder (its hold was lease-force-released and
// the lock re-granted) must not decrement the new holder.
TEST_F(PriorityExtendedTest, MismatchedExclusiveReleaseIsDropped) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  Send(MakeRelease(1, LockMode::kExclusive, 99, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  EXPECT_EQ(switch_->stats().mismatched_releases, 1u);
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(PriorityExtendedTest, HarvestWorksOnPriorityPath) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  for (TxnId txn = 0; txn < 3; ++txn) {
    LockHeader hdr = MakeAcquire(1, LockMode::kExclusive, txn,
                                 client_->node());
    hdr.priority = static_cast<Priority>(txn % 2);
    Send(hdr);
  }
  std::vector<LockDemand> demands;
  switch_->HarvestDemands(1.0, demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_DOUBLE_EQ(demands[0].rate, 3.0);
  EXPECT_GE(demands[0].contention, 3u);
}

TEST_F(PriorityExtendedTest, QuotaAppliesOnPriorityPath) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  switch_->quota().Configure(/*tenant=*/3, /*rate=*/10.0, /*burst=*/1);
  LockHeader first = MakeAcquire(1, LockMode::kExclusive, 1,
                                 client_->node());
  first.tenant = 3;
  Send(first);
  LockHeader second = MakeAcquire(2, LockMode::kExclusive, 2,
                                  client_->node());
  second.tenant = 3;
  Send(second);
  EXPECT_TRUE(client_->HasGrantFor(1));
  EXPECT_EQ(switch_->stats().rejected_quota, 1u);
  bool saw_reject = false;
  for (const auto& msg : client_->received()) {
    saw_reject |= msg.op == LockOp::kReject && msg.txn_id == 2;
  }
  EXPECT_TRUE(saw_reject);
}

TEST_F(PriorityExtendedTest, FullPriorityClassOverflowsToServer) {
  // 8 slots split across 2 classes -> 4 per class.
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  // Fill class 1 beyond its region: 1 holder + 4 waiting + overflow.
  for (TxnId txn = 0; txn < 6; ++txn) {
    LockHeader hdr = MakeAcquire(1, LockMode::kExclusive, txn,
                                 client_->node());
    hdr.priority = 1;
    Send(hdr);
  }
  EXPECT_GE(switch_->stats().forwarded_overflow, 1u);
  EXPECT_GE(server_->OverflowDepth(1), 1u);
}

// A paused lock (being moved to its server) takes no new entries on the
// priority path either: acquires go buffer-only to the home server's q2
// while the switch queue drains, and enqueue again once unpaused.
TEST_F(PriorityExtendedTest, PausedLockForwardsBufferOnly) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  switch_->PauseLock(1, true);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_EQ(switch_->stats().forwarded_overflow, 1u);
  EXPECT_EQ(server_->OverflowDepth(1), 1u);  // Buffered, not granted.
  EXPECT_TRUE(switch_->QueueEmpty(1));
  EXPECT_TRUE(client_->Grants().empty());
  switch_->PauseLock(1, false);
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_EQ(switch_->stats().forwarded_overflow, 1u);
  EXPECT_TRUE(client_->HasGrantFor(2));
  EXPECT_FALSE(switch_->QueueEmpty(1));
}

TEST_F(PriorityExtendedTest, QueueEmptyReflectsHoldersAndWaiters) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  EXPECT_TRUE(switch_->QueueEmpty(1));
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_FALSE(switch_->QueueEmpty(1));  // Holder.
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_FALSE(switch_->QueueEmpty(1));  // txn 2 now holds.
  Send(MakeRelease(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_TRUE(switch_->QueueEmpty(1));
}

TEST_F(PriorityExtendedTest, LeaseClearsExpiredHolderOnPriorityPath) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  LockHeader low = MakeAcquire(1, LockMode::kExclusive, 2, client_->node());
  low.priority = 1;
  Send(low);
  EXPECT_FALSE(client_->HasGrantFor(2));
  sim_.RunUntil(sim_.now() + 20 * kMillisecond);
  switch_->ClearExpired(/*lease=*/5 * kMillisecond);
  sim_.Run();
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// Hole B: a priority class's overflow must drain back through the
// kQueueEmpty handshake. Six class-1 exclusives on an 8-slot lock (4 slots
// per class): four queue, two go to the server's q2; releasing 0..4 in
// grant order must end with txn 5 granted from its own class's ring.
TEST_F(PriorityExtendedTest, ClassOverflowDrainsThroughQueueEmpty) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  for (TxnId txn = 0; txn < 6; ++txn) {
    Send(MakeAcquire(1, LockMode::kExclusive, txn, client_->node(),
                     /*priority=*/1));
  }
  EXPECT_GE(server_->OverflowDepth(1), 1u);
  for (TxnId txn = 0; txn < 5; ++txn) {
    ASSERT_TRUE(client_->HasGrantFor(txn)) << txn;
    Send(MakeRelease(1, LockMode::kExclusive, txn, client_->node(),
                     /*priority=*/1));
  }
  sim_.RunUntil(sim_.now() + 20 * kMillisecond);
  switch_->ClearExpired(/*lease=*/5 * kMillisecond);
  server_->ClearExpired(/*lease=*/5 * kMillisecond);
  sim_.Run();
  EXPECT_TRUE(client_->HasGrantFor(5));
  EXPECT_EQ(server_->OverflowDepth(1), 0u);
  EXPECT_GE(switch_->stats().queue_empty_notifies, 1u);
}

TEST_F(PriorityExtendedTest, IsSuspendedReportsInstallMode) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  ASSERT_TRUE(switch_->InstallLock(2, server_->node(), 8,
                                   /*suspended=*/true));
  EXPECT_FALSE(switch_->IsSuspended(1));
  EXPECT_TRUE(switch_->IsSuspended(2));
  EXPECT_FALSE(switch_->IsSuspended(3));  // Not installed.
}

// A suspended install queues without granting; Activate then grants the
// highest class's head first, whatever the arrival order.
TEST_F(PriorityExtendedTest, SuspendedInstallActivatesHighestClassFirst) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8,
                                   /*suspended=*/true));
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node(),
                   /*priority=*/1));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node(),
                   /*priority=*/0));
  Send(MakeAcquire(1, LockMode::kShared, 3, client_->node(),
                   /*priority=*/0));
  EXPECT_TRUE(client_->Grants().empty());
  switch_->Activate(1);
  sim_.Run();
  EXPECT_FALSE(switch_->IsSuspended(1));
  ASSERT_EQ(client_->Grants().size(), 1u);
  EXPECT_EQ(client_->Grants()[0].txn_id, 2u);
  Send(MakeRelease(1, LockMode::kExclusive, 2, client_->node(),
                   /*priority=*/0));
  ASSERT_EQ(client_->Grants().size(), 2u);
  EXPECT_EQ(client_->Grants()[1].txn_id, 3u);
  Send(MakeRelease(1, LockMode::kShared, 3, client_->node(),
                   /*priority=*/0));
  ASSERT_EQ(client_->Grants().size(), 3u);
  EXPECT_EQ(client_->Grants()[2].txn_id, 1u);
}

// Regions are not capped at 64 slots per class: 100 waiters per class
// queue on the switch and drain in strict priority, FIFO within a class.
TEST_F(PriorityExtendedTest, ClassRegionsBeyondSixtyFourSlots) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 2 * 101));
  Send(MakeAcquire(1, LockMode::kExclusive, 0, client_->node()));
  for (TxnId txn = 1; txn <= 200; ++txn) {
    Send(MakeAcquire(1, LockMode::kExclusive, txn, client_->node(),
                     /*priority=*/static_cast<Priority>(txn % 2)));
  }
  EXPECT_EQ(switch_->stats().forwarded_overflow, 0u);
  std::vector<TxnId> order;
  for (TxnId held = 0;;) {
    Send(MakeRelease(1, LockMode::kExclusive, held, client_->node(),
                     static_cast<Priority>(held % 2)));
    const auto grants = client_->Grants();
    if (grants.size() == order.size() + 1) break;  // Nothing new: done.
    held = grants.back().txn_id;
    order.push_back(held);
  }
  ASSERT_EQ(order.size(), 200u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], 2 * (i + 1)) << i;        // Class 0 first...
    EXPECT_EQ(order[100 + i], 2 * i + 1) << i;    // ...then class 1.
  }
}

TEST_F(DefaultPathExtendedTest, RegionsRecycleAcrossInstallCycles) {
  // Install/remove cycles must not leak shared-queue slots or meta cells.
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (LockId lock = 0; lock < 16; ++lock) {
      ASSERT_TRUE(switch_->InstallLock(100 + lock, server_->node(), 32))
          << "cycle " << cycle << " lock " << lock;
    }
    for (LockId lock = 0; lock < 16; ++lock) {
      switch_->RemoveLock(100 + lock);
    }
  }
  EXPECT_EQ(switch_->table().free_slots(), 512u);
}

}  // namespace
}  // namespace netlock
