// Tests for the NetLock switch data plane: Algorithm 2's grant/queue rules,
// the four release cases, circular-region wrap-around, shared-queue
// mapping, and lease-based cleanup.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dataplane/shared_queue.h"
#include "dataplane/switch_dataplane.h"
#include "test_util.h"

namespace netlock {
namespace {

using testing::MakeAcquire;
using testing::MakeRelease;
using testing::PacketCatcher;

class DataplaneTest : public ::testing::Test {
 protected:
  DataplaneTest() : net_(sim_, /*latency=*/1000) {
    LockSwitchConfig config;
    config.queue_capacity = 256;
    config.array_size = 64;  // Force multi-array pooling.
    config.max_locks = 32;
    switch_ = std::make_unique<LockSwitch>(net_, config);
    client_ = std::make_unique<PacketCatcher>(net_);
    server_ = std::make_unique<PacketCatcher>(net_);
  }

  void Install(LockId lock, std::uint32_t slots) {
    ASSERT_TRUE(switch_->InstallLock(lock, server_->node(), slots));
  }

  void Send(const LockHeader& hdr) {
    switch_->HandlePacket(MakeLockPacket(hdr.client_node, switch_->node(),
                                         hdr));
    sim_.Run();  // Deliver grants.
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockSwitch> switch_;
  std::unique_ptr<PacketCatcher> client_;
  std::unique_ptr<PacketCatcher> server_;
};

TEST_F(DataplaneTest, GrantsExclusiveOnEmptyQueue) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 100, client_->node()));
  ASSERT_TRUE(client_->HasGrantFor(100));
  EXPECT_EQ(switch_->stats().grants, 1u);
}

TEST_F(DataplaneTest, QueuesSecondExclusive) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 100, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 101, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(100));
  EXPECT_FALSE(client_->HasGrantFor(101));
}

TEST_F(DataplaneTest, GrantsAllSharedImmediately) {
  Install(1, 8);
  for (TxnId txn = 0; txn < 5; ++txn) {
    Send(MakeAcquire(1, LockMode::kShared, txn, client_->node()));
  }
  EXPECT_EQ(client_->Grants().size(), 5u);
}

TEST_F(DataplaneTest, SharedBehindExclusiveWaits) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
}

// Release case Shared -> Shared: remaining shared holder already granted,
// no new grant is generated.
TEST_F(DataplaneTest, ReleaseSharedThenSharedNoNewGrant) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kShared, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 2, client_->node()));
  client_->Clear();
  Send(MakeRelease(1, LockMode::kShared, 1, client_->node()));
  EXPECT_TRUE(client_->Grants().empty());
  EXPECT_EQ(switch_->stats().releases, 1u);
}

// Release case Shared -> Exclusive: the last shared holder leaves and the
// waiting exclusive is granted.
TEST_F(DataplaneTest, ReleaseSharedGrantsWaitingExclusive) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kShared, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  Send(MakeRelease(1, LockMode::kShared, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// Two shared holders + waiting exclusive: the exclusive is granted only
// after BOTH release (heads dequeue in order regardless of releaser).
TEST_F(DataplaneTest, ExclusiveWaitsForAllSharedHolders) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kShared, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 2, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 3, client_->node()));
  // Out-of-order shared release (txn 2 first): commutative, no grant yet.
  Send(MakeRelease(1, LockMode::kShared, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(3));
  Send(MakeRelease(1, LockMode::kShared, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(3));
}

// Release case Exclusive -> Exclusive: next exclusive granted, exactly one.
TEST_F(DataplaneTest, ReleaseExclusiveGrantsNextExclusive) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 3, client_->node()));
  client_->Clear();
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  const auto grants = client_->Grants();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn_id, 2u);
}

// Release case Exclusive -> Shared: the resubmit chain grants every leading
// shared request and stops at the next exclusive.
TEST_F(DataplaneTest, ReleaseExclusiveGrantsSharedBatch) {
  Install(1, 16);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  for (TxnId txn = 2; txn <= 4; ++txn) {
    Send(MakeAcquire(1, LockMode::kShared, txn, client_->node()));
  }
  Send(MakeAcquire(1, LockMode::kExclusive, 5, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 6, client_->node()));
  client_->Clear();
  const std::uint64_t resubmits_before = switch_->resubmits();
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  const auto grants = client_->Grants();
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(grants[0].txn_id, 2u);
  EXPECT_EQ(grants[1].txn_id, 3u);
  EXPECT_EQ(grants[2].txn_id, 4u);
  EXPECT_FALSE(client_->HasGrantFor(5));
  EXPECT_FALSE(client_->HasGrantFor(6));
  // One resubmit to inspect the head plus one per extra shared grant.
  EXPECT_GE(switch_->resubmits() - resubmits_before, 3u);
}

// Activation runs the exclusive-release cascade: over a suspended
// [S, S, X] queue it grants exactly the two shared entries, and costs the
// resubmits the E->S cascade costs over the same queue behind a released
// exclusive holder (which adds one resubmit for its pop pass). The first
// head is read in the pass whose stage-1 access finds it; each later pass
// accounts the previous grant and reads the next slot.
TEST_F(DataplaneTest, ActivationGrantsLikeExclusiveReleaseCascade) {
  ASSERT_TRUE(
      switch_->InstallLock(1, server_->node(), 8, /*suspended=*/true));
  Send(MakeAcquire(1, LockMode::kShared, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 2, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 3, client_->node()));
  EXPECT_TRUE(client_->Grants().empty());
  std::uint64_t before = switch_->resubmits();
  switch_->Activate(1);
  sim_.Run();
  const std::uint64_t activation_cost = switch_->resubmits() - before;
  auto grants = client_->Grants();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].txn_id, 1u);
  EXPECT_EQ(grants[1].txn_id, 2u);
  EXPECT_EQ(activation_cost, 2u);  // Then S, then the blocking X.

  Install(2, 8);
  Send(MakeAcquire(2, LockMode::kExclusive, 10, client_->node()));
  Send(MakeAcquire(2, LockMode::kShared, 11, client_->node()));
  Send(MakeAcquire(2, LockMode::kShared, 12, client_->node()));
  Send(MakeAcquire(2, LockMode::kExclusive, 13, client_->node()));
  client_->Clear();
  before = switch_->resubmits();
  Send(MakeRelease(2, LockMode::kExclusive, 10, client_->node()));
  grants = client_->Grants();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].txn_id, 11u);
  EXPECT_EQ(grants[1].txn_id, 12u);
  EXPECT_EQ(switch_->resubmits() - before, activation_cost + 1);
}

// FCFS: grants follow enqueue order across a long mixed sequence.
TEST_F(DataplaneTest, FcfsGrantOrder) {
  Install(1, 32);
  // E0, then S1..S3, then E4, then S5.
  Send(MakeAcquire(1, LockMode::kExclusive, 0, client_->node()));
  for (TxnId txn = 1; txn <= 3; ++txn) {
    Send(MakeAcquire(1, LockMode::kShared, txn, client_->node()));
  }
  Send(MakeAcquire(1, LockMode::kExclusive, 4, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 5, client_->node()));

  std::vector<TxnId> grant_order{0};
  client_->Clear();
  Send(MakeRelease(1, LockMode::kExclusive, 0, client_->node()));  // S1-3.
  for (const auto& g : client_->Grants()) grant_order.push_back(g.txn_id);
  client_->Clear();
  for (TxnId txn = 1; txn <= 3; ++txn) {
    Send(MakeRelease(1, LockMode::kShared, txn, client_->node()));
  }
  for (const auto& g : client_->Grants()) grant_order.push_back(g.txn_id);
  client_->Clear();
  Send(MakeRelease(1, LockMode::kExclusive, 4, client_->node()));
  for (const auto& g : client_->Grants()) grant_order.push_back(g.txn_id);

  EXPECT_EQ(grant_order, (std::vector<TxnId>{0, 1, 2, 3, 4, 5}));
}

// The circular region wraps: run more traffic than the region size.
TEST_F(DataplaneTest, CircularRegionWrapAround) {
  Install(1, 4);
  for (TxnId txn = 0; txn < 100; ++txn) {
    Send(MakeAcquire(1, LockMode::kExclusive, txn, client_->node()));
    ASSERT_TRUE(client_->HasGrantFor(txn)) << txn;
    Send(MakeRelease(1, LockMode::kExclusive, txn, client_->node()));
  }
  EXPECT_EQ(switch_->stats().grants, 100u);
}

// Wrap with queued waiters crossing the boundary.
TEST_F(DataplaneTest, WrapWithWaiters) {
  Install(1, 3);
  // Fill: grant 0, queue 1, 2.
  for (TxnId txn = 0; txn < 3; ++txn) {
    Send(MakeAcquire(1, LockMode::kExclusive, txn, client_->node()));
  }
  for (TxnId txn = 0; txn < 3; ++txn) {
    ASSERT_TRUE(client_->HasGrantFor(txn));
    Send(MakeRelease(1, LockMode::kExclusive, txn, client_->node()));
    // Freed slot is immediately reusable by the next acquire.
    Send(MakeAcquire(1, LockMode::kExclusive, 10 + txn, client_->node()));
  }
  for (TxnId txn = 10; txn < 13; ++txn) {
    Send(MakeRelease(1, LockMode::kExclusive, txn, client_->node()));
  }
  EXPECT_EQ(switch_->stats().grants, 6u);
}

// Requests for locks the switch does not own are forwarded to the server.
TEST_F(DataplaneTest, ForwardsUnownedLocks) {
  switch_->SetHomeServer(7, server_->node());
  Send(MakeAcquire(7, LockMode::kExclusive, 1, client_->node()));
  ASSERT_EQ(server_->received().size(), 1u);
  EXPECT_EQ(server_->received()[0].op, LockOp::kAcquire);
  EXPECT_TRUE(server_->received()[0].flags & kFlagServerOwned);
  EXPECT_EQ(switch_->stats().forwarded_unowned, 1u);
}

TEST_F(DataplaneTest, DefaultRouteUsedWithoutEntry) {
  switch_->SetDefaultRoute([this](LockId) { return server_->node(); });
  Send(MakeAcquire(99, LockMode::kShared, 1, client_->node()));
  ASSERT_EQ(server_->received().size(), 1u);
}

TEST_F(DataplaneTest, StaleReleaseIsDropped) {
  Install(1, 8);
  Send(MakeRelease(1, LockMode::kExclusive, 42, client_->node()));
  EXPECT_EQ(switch_->stats().stale_releases, 1u);
  EXPECT_EQ(switch_->stats().releases, 0u);
}

// A network-duplicated RELEASE copy (identical header, same nonce) must be
// dropped by the dedup filter: the dequeue is a blind head pop, so a second
// application would evict the next waiter's entry.
TEST_F(DataplaneTest, DuplicatedReleaseCopyIsDropped) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 3, client_->node()));
  const LockHeader release =
      MakeRelease(1, LockMode::kExclusive, 1, client_->node());
  Send(release);
  EXPECT_TRUE(client_->HasGrantFor(2));
  // The retransmitted copy must NOT blind-pop txn 2's entry.
  Send(release);
  EXPECT_FALSE(client_->HasGrantFor(3));
  EXPECT_EQ(switch_->stats().duplicate_releases, 1u);
  // A second *logical* release (fresh nonce) does pop.
  Send(MakeRelease(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(3));
}

// A release from a transaction that no longer holds the lock (its entry was
// lease-force-released and the head re-granted to someone else) must not
// blind-pop the current holder's entry. The validated dequeue compares the
// head's mode — and, for exclusive, transaction — against the release.
TEST_F(DataplaneTest, MismatchedExclusiveReleaseIsDropped) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  // Txn 99 never held the lock: its release (fresh nonce, so the dedup
  // filter passes it) must not pop txn 1's entry and grant txn 2.
  Send(MakeRelease(1, LockMode::kExclusive, 99, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  EXPECT_EQ(switch_->stats().mismatched_releases, 1u);
  EXPECT_EQ(switch_->stats().releases, 0u);
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// Mode mismatch: an exclusive release while the head is a shared holder is
// from a reclaimed entry, not the current hold.
TEST_F(DataplaneTest, WrongModeReleaseIsDropped) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kShared, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  EXPECT_EQ(switch_->stats().mismatched_releases, 1u);
  Send(MakeRelease(1, LockMode::kShared, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// A failed switch performs no processing at all: the control plane's lease
// polling keeps ticking during an outage, and a sweep of the dead registers
// would cascade-grant from the stale queue while a backup serves the same
// locks — double-granting the lock.
TEST_F(DataplaneTest, FailedSwitchLeaseSweepIsNoOp) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  switch_->Fail();
  sim_.RunUntil(sim_.now() + 10 * kMillisecond);
  client_->Clear();
  switch_->ClearExpired(/*lease=*/5 * kMillisecond);
  sim_.Run();
  EXPECT_TRUE(client_->Grants().empty());
  EXPECT_EQ(switch_->stats().releases, 0u);
}

// Every grant carries a fresh per-instance nonce in aux, so a client can
// tell a duplicated copy of one grant (same nonce — drop) from the grant of
// a second queue entry created by a retransmitted acquire (fresh nonce —
// ghost-release it).
TEST_F(DataplaneTest, GrantsCarryDistinctInstanceNonces) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  // Retransmitted acquire: a second queue entry for the same txn.
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  const auto grants = client_->Grants();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].txn_id, 1u);
  EXPECT_EQ(grants[1].txn_id, 1u);
  EXPECT_NE(grants[0].aux, grants[1].aux);
  EXPECT_NE(GrantFingerprint(grants[0], switch_->node()),
            GrantFingerprint(grants[1], switch_->node()));
}

TEST_F(DataplaneTest, FailedSwitchDropsPackets) {
  Install(1, 8);
  switch_->Fail();
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(1));
  EXPECT_EQ(switch_->stats().dropped_while_failed, 1u);
}

TEST_F(DataplaneTest, RestartLosesStateButServesAgain) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  switch_->Fail();
  switch_->Restart();
  EXPECT_FALSE(switch_->IsInstalled(1));
  // Reinstall (control-plane recovery) and serve.
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(DataplaneTest, LeaseExpiryForcesReleaseAndUnblocks) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  // Advance past the lease; the control plane clears the expired holder.
  sim_.RunUntil(sim_.now() + 10 * kMillisecond);
  switch_->ClearExpired(/*lease=*/5 * kMillisecond);
  sim_.Run();
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(DataplaneTest, LeaseKeepsFreshEntries) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  switch_->ClearExpired(/*lease=*/5 * kMillisecond);
  sim_.Run();
  // Holder is fresh: a second request must still wait.
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
}

TEST_F(DataplaneTest, PausedLockForwardsBufferOnly) {
  Install(1, 8);
  switch_->PauseLock(1, true);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  ASSERT_EQ(server_->received().size(), 1u);
  EXPECT_TRUE(server_->received()[0].flags & kFlagBufferOnly);
  EXPECT_TRUE(switch_->QueueEmpty(1));
}

TEST_F(DataplaneTest, RemoveLockRequiresDrain) {
  Install(1, 8);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_FALSE(switch_->QueueEmpty(1));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(switch_->QueueEmpty(1));
  switch_->RemoveLock(1);
  EXPECT_FALSE(switch_->IsInstalled(1));
}

// Grant observer fires for every grant with correct attribution.
TEST_F(DataplaneTest, GrantObserverSeesEveryGrant) {
  Install(1, 8);
  std::vector<std::pair<TxnId, LockMode>> observed;
  switch_->set_grant_observer(
      [&](LockId lock, TxnId txn, LockMode mode, NodeId) {
        EXPECT_EQ(lock, 1u);
        observed.emplace_back(txn, mode);
      });
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 2, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].first, 1u);
  EXPECT_EQ(observed[1].first, 2u);
  EXPECT_EQ(observed[1].second, LockMode::kShared);
}

// Multiple independent locks do not interfere.
TEST_F(DataplaneTest, IndependentLocksIsolated) {
  Install(1, 4);
  Install(2, 4);
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(2, LockMode::kExclusive, 2, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(1));
  EXPECT_TRUE(client_->HasGrantFor(2));
  Send(MakeAcquire(2, LockMode::kExclusive, 3, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(3));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(3));  // Lock 1's release can't grant 2's.
}

// Parameterized sweep: every interleaving of 2 shared + 1 exclusive arrival
// orders preserves mutual exclusion and grants everyone exactly once.
class DataplaneOrderTest : public DataplaneTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(DataplaneOrderTest, AllArrivalOrdersDrainFully) {
  Install(1, 8);
  // The three orderings of {S,S,E} by parameter.
  const int p = GetParam();
  std::vector<std::pair<TxnId, LockMode>> arrivals;
  switch (p) {
    case 0:
      arrivals = {{1, LockMode::kShared}, {2, LockMode::kShared},
                  {3, LockMode::kExclusive}};
      break;
    case 1:
      arrivals = {{1, LockMode::kShared}, {3, LockMode::kExclusive},
                  {2, LockMode::kShared}};
      break;
    default:
      arrivals = {{3, LockMode::kExclusive}, {1, LockMode::kShared},
                  {2, LockMode::kShared}};
      break;
  }
  for (const auto& [txn, mode] : arrivals) {
    Send(MakeAcquire(1, mode, txn, client_->node()));
  }
  // Release in grant order until everyone has been granted and released.
  std::vector<TxnId> released;
  for (int rounds = 0; rounds < 10 && released.size() < 3; ++rounds) {
    for (const auto& g : client_->Grants()) {
      if (std::find(released.begin(), released.end(), g.txn_id) !=
          released.end()) {
        continue;
      }
      released.push_back(g.txn_id);
      Send(MakeRelease(1, g.mode, g.txn_id, client_->node()));
    }
  }
  EXPECT_EQ(released.size(), 3u);
  EXPECT_TRUE(switch_->QueueEmpty(1));
}

INSTANTIATE_TEST_SUITE_P(ArrivalOrders, DataplaneOrderTest,
                         ::testing::Values(0, 1, 2));

// SharedQueue mapping: indices land in the right arrays and wrap helper is
// exact at region edges.
TEST(SharedQueueTest, IndexMappingAcrossArrays) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  SharedQueue queue(pipeline, /*first_stage=*/2, /*capacity=*/100,
                    /*array_size=*/32);
  EXPECT_EQ(queue.num_arrays(), 4u);  // 32+32+32+4.
  for (std::uint32_t i : {0u, 31u, 32u, 63u, 64u, 99u}) {
    QueueSlot slot;
    slot.txn_id = i;
    queue.ControlAt(i) = slot;
  }
  for (std::uint32_t i : {0u, 31u, 32u, 63u, 64u, 99u}) {
    EXPECT_EQ(queue.ControlAt(i).txn_id, i);
  }
}

TEST(SharedQueueTest, NextWrapsAtRegionBoundary) {
  const LockBounds bounds{10, 14};
  EXPECT_EQ(SharedQueue::Next(10, bounds), 11u);
  EXPECT_EQ(SharedQueue::Next(13, bounds), 10u);
}

TEST(SharedQueueTest, DataPlaneAccessCountsAgainstOwningArrayOnly) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  SharedQueue queue(pipeline, 2, 64, 16);
  PacketPass pass = pipeline.BeginPass();
  QueueSlot slot;
  slot.txn_id = 7;
  queue.Write(pass, 0, slot);    // Array 0.
  queue.Read(pass, 20);          // Array 1: distinct array, same pass: OK.
  pipeline.Resubmit(pass);
  EXPECT_EQ(queue.Read(pass, 0).txn_id, 7u);  // Array 0 again after resubmit.
}

// Regression tests for the InstallLock priority split. The old split used
// base = max(1, slots / p) for every class, which dropped the remainder
// (10 slots over 4 classes installed only 8) and silently inflated the
// total when slots < p. The split must sum to max(slots, p) with class
// sizes differing by at most one, remainder to the highest priorities.
class PrioritySplitTest : public ::testing::Test {
 protected:
  PrioritySplitTest() : net_(sim_, /*latency=*/1000) {}

  std::vector<std::uint32_t> InstallAndSplit(std::uint8_t priorities,
                                             std::uint32_t slots) {
    LockSwitchConfig config;
    config.queue_capacity = 256;
    config.array_size = 64;
    config.max_locks = 8;
    config.num_priorities = priorities;
    LockSwitch sw(net_, config);
    PacketCatcher server(net_);
    EXPECT_TRUE(sw.InstallLock(/*lock=*/1, server.node(), slots));
    const SwitchLockEntry* entry = sw.table().Find(1);
    EXPECT_NE(entry, nullptr);
    std::vector<std::uint32_t> sizes;
    for (const LockBounds& region : entry->regions) {
      sizes.push_back(region.size());
    }
    return sizes;
  }

  Simulator sim_;
  Network net_;
};

TEST_F(PrioritySplitTest, RemainderGoesToHighestPriorities) {
  // 10 over 4: 3+3+2+2, not the old 2+2+2+2.
  EXPECT_EQ(InstallAndSplit(4, 10),
            (std::vector<std::uint32_t>{3, 3, 2, 2}));
}

TEST_F(PrioritySplitTest, EvenSplitUnchanged) {
  EXPECT_EQ(InstallAndSplit(3, 30),
            (std::vector<std::uint32_t>{10, 10, 10}));
}

TEST_F(PrioritySplitTest, SumsToRequestedSlots) {
  for (const std::uint32_t slots : {5u, 7u, 11u, 13u, 64u}) {
    for (const std::uint8_t p : {2, 3, 4}) {
      const auto sizes = InstallAndSplit(p, slots);
      ASSERT_EQ(sizes.size(), p);
      std::uint32_t sum = 0;
      std::uint32_t lo = sizes[0], hi = sizes[0];
      for (const std::uint32_t s : sizes) {
        sum += s;
        lo = std::min(lo, s);
        hi = std::max(hi, s);
      }
      EXPECT_EQ(sum, std::max<std::uint32_t>(slots, p))
          << "slots=" << slots << " p=" << static_cast<int>(p);
      EXPECT_LE(hi - lo, 1u) << "slots=" << slots
                             << " p=" << static_cast<int>(p);
      // Sizes are non-increasing: remainder lands on high priorities.
      for (std::size_t i = 1; i < sizes.size(); ++i) {
        EXPECT_LE(sizes[i], sizes[i - 1]);
      }
    }
  }
}

TEST_F(PrioritySplitTest, FewerSlotsThanClassesGetsOneEach) {
  EXPECT_EQ(InstallAndSplit(4, 2),
            (std::vector<std::uint32_t>{1, 1, 1, 1}));
}

TEST_F(PrioritySplitTest, DefaultPathSingleRegionExact) {
  EXPECT_EQ(InstallAndSplit(1, 10), (std::vector<std::uint32_t>{10}));
}

}  // namespace
}  // namespace netlock
