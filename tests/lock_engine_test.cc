// Unit tests for the substrate-neutral LockEngine: the wait-queue protocol
// core shared by the simulated LockServer and the real-time RtLockService.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/lock_engine.h"

namespace netlock {
namespace {

struct CapturedGrant {
  LockId lock;
  QueueSlot slot;
  std::size_t seq = 0;  ///< Position in the merged grant+abort stream.
};

struct CapturedAbort {
  LockId lock;
  QueueSlot slot;
  AbortReason reason;
  std::size_t seq = 0;
};

class CapturingSink : public GrantSink {
 public:
  void DeliverGrant(LockId lock, const QueueSlot& slot) override {
    grants.push_back({lock, slot, events++});
  }
  void OnWaitEnd(LockId lock, const QueueSlot&, SimTime) override {
    wait_ends.push_back(lock);
  }
  void DeliverAbort(LockId lock, const QueueSlot& slot,
                    AbortReason reason) override {
    aborts.push_back({lock, slot, reason, events++});
  }

  std::vector<CapturedGrant> grants;
  std::vector<LockId> wait_ends;
  std::vector<CapturedAbort> aborts;
  /// Merged grant+abort delivery count (sequences ordering assertions).
  std::size_t events = 0;
};

QueueSlot Slot(LockMode mode, TxnId txn, NodeId client = 1) {
  QueueSlot slot;
  slot.mode = mode;
  slot.txn_id = txn;
  slot.client_node = client;
  return slot;
}

TEST(LockEngineTest, FirstAcquireGrantsImmediately) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(7, Slot(LockMode::kExclusive, 1), 100);
  ASSERT_EQ(sink.grants.size(), 1u);
  EXPECT_EQ(sink.grants[0].lock, 7u);
  EXPECT_EQ(sink.grants[0].slot.txn_id, 1u);
  EXPECT_EQ(sink.grants[0].slot.timestamp, 100u);  // Stamped with now.
  EXPECT_TRUE(sink.wait_ends.empty());             // No wait happened.
  EXPECT_TRUE(engine.Owns(7));
  EXPECT_EQ(engine.QueueDepth(7), 1u);
}

TEST(LockEngineTest, SharedRequestsJoinSharedHolders) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(1, Slot(LockMode::kShared, 1), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 2), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 3), 0);
  EXPECT_EQ(sink.grants.size(), 3u);  // All-shared queue grants everyone.
  engine.Acquire(1, Slot(LockMode::kExclusive, 4), 0);
  EXPECT_EQ(sink.grants.size(), 3u);  // Exclusive waits behind them.
  EXPECT_EQ(engine.QueueDepth(1), 4u);
}

TEST(LockEngineTest, ExclusiveReleaseCascadesToNextHead) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(1, Slot(LockMode::kExclusive, 1), 10);
  engine.Acquire(1, Slot(LockMode::kExclusive, 2), 20);
  ASSERT_EQ(sink.grants.size(), 1u);
  const ReleaseOutcome outcome =
      engine.Release(1, LockMode::kExclusive, 1, /*lease_forced=*/false, 30);
  EXPECT_EQ(outcome, ReleaseOutcome::kApplied);
  ASSERT_EQ(sink.grants.size(), 2u);
  EXPECT_EQ(sink.grants[1].slot.txn_id, 2u);
  EXPECT_EQ(sink.grants[1].slot.timestamp, 30u);  // Re-stamped at grant.
  ASSERT_EQ(sink.wait_ends.size(), 1u);           // Txn 2 waited.
}

TEST(LockEngineTest, ExclusiveReleaseGrantsRunOfShareds) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(1, Slot(LockMode::kExclusive, 1), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 2), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 3), 0);
  engine.Acquire(1, Slot(LockMode::kExclusive, 4), 0);
  ASSERT_EQ(sink.grants.size(), 1u);
  engine.Release(1, LockMode::kExclusive, 1, false, 0);
  // E -> S cascade: both leading shareds granted, trailing exclusive not.
  EXPECT_EQ(sink.grants.size(), 3u);
  EXPECT_EQ(sink.grants[1].slot.txn_id, 2u);
  EXPECT_EQ(sink.grants[2].slot.txn_id, 3u);
}

TEST(LockEngineTest, ReleaseValidationRejectsStaleAndMismatched) {
  CapturingSink sink;
  LockEngine engine(sink);
  EXPECT_EQ(engine.Release(9, LockMode::kExclusive, 1, false, 0),
            ReleaseOutcome::kStale);  // Unknown lock.
  engine.Acquire(9, Slot(LockMode::kExclusive, 1), 0);
  // Wrong transaction for an exclusive hold: must not blind-pop.
  EXPECT_EQ(engine.Release(9, LockMode::kExclusive, 2, false, 0),
            ReleaseOutcome::kMismatched);
  // Wrong mode.
  EXPECT_EQ(engine.Release(9, LockMode::kShared, 1, false, 0),
            ReleaseOutcome::kMismatched);
  EXPECT_EQ(engine.QueueDepth(9), 1u);  // Holder still in place.
  EXPECT_EQ(engine.Release(9, LockMode::kExclusive, 1, false, 0),
            ReleaseOutcome::kApplied);
  EXPECT_TRUE(engine.QueueEmpty(9));
}

TEST(LockEngineTest, ClearExpiredForceReleasesOldHeads) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(1, Slot(LockMode::kExclusive, 1), 0);      // Granted at 0.
  engine.Acquire(1, Slot(LockMode::kExclusive, 2), 500);    // Waits.
  engine.Acquire(2, Slot(LockMode::kExclusive, 3), 900);    // Fresh.
  const std::uint64_t forced = engine.ClearExpired(/*lease=*/1000,
                                                   /*now=*/1100);
  EXPECT_EQ(forced, 1u);  // Only lock 1's head (granted at 0) expired.
  // Txn 2 re-stamped at 1100 and granted.
  ASSERT_EQ(sink.grants.size(), 3u);
  EXPECT_EQ(sink.grants[2].slot.txn_id, 2u);
  EXPECT_EQ(sink.grants[2].slot.timestamp, 1100u);
}

TEST(LockEngineTest, PausedLockBuffersUntilResumed) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.SetPaused(5, true);
  engine.Acquire(5, Slot(LockMode::kExclusive, 1), 0);
  engine.Acquire(5, Slot(LockMode::kExclusive, 2), 0);
  EXPECT_TRUE(sink.grants.empty());
  EXPECT_TRUE(engine.IsPaused(5));
  EXPECT_EQ(engine.TotalQueueDepth(), 2u);  // Buffered entries count.
  std::deque<QueueSlot> buffered = engine.TakePausedBuffer(5);
  ASSERT_EQ(buffered.size(), 2u);
  engine.SetPaused(5, false);
  for (QueueSlot& slot : buffered) engine.Acquire(5, slot, 50);
  EXPECT_EQ(sink.grants.size(), 1u);  // Head granted, second waits.
}

TEST(LockEngineTest, AdoptQueueInstallsBacklogAndGrantsFront) {
  CapturingSink sink;
  LockEngine engine(sink);
  std::deque<QueueSlot> backlog;
  backlog.push_back(Slot(LockMode::kShared, 1));
  backlog.push_back(Slot(LockMode::kShared, 2));
  backlog.push_back(Slot(LockMode::kExclusive, 3));
  engine.AdoptQueue(4, std::move(backlog), 200);
  // Leading shared run granted, re-stamped to adoption time.
  ASSERT_EQ(sink.grants.size(), 2u);
  EXPECT_EQ(sink.grants[0].slot.timestamp, 200u);
  EXPECT_EQ(engine.QueueDepth(4), 3u);
  // Adopting an empty queue still creates the entry (ownership marker).
  engine.AdoptQueue(6, {}, 200);
  EXPECT_TRUE(engine.Owns(6));
  EXPECT_TRUE(engine.QueueEmpty(6));
}

TEST(LockEngineTest, HarvestDemandsReportsAndResetsCounters) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(1, Slot(LockMode::kExclusive, 1), 0);
  engine.Acquire(1, Slot(LockMode::kExclusive, 2), 0);
  engine.Acquire(1, Slot(LockMode::kExclusive, 3), 0);
  std::vector<LockDemand> demands;
  engine.HarvestDemands(/*window_sec=*/2.0, demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].lock, 1u);
  EXPECT_DOUBLE_EQ(demands[0].rate, 1.5);     // 3 requests / 2 s.
  EXPECT_EQ(demands[0].contention, 3u);       // Max depth seen.
  demands.clear();
  engine.HarvestDemands(2.0, demands);
  EXPECT_TRUE(demands.empty());  // Counters reset; idle locks not reported.
}

TEST(LockEngineTest, DropDrainedAssertsEmptyAndForgets) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(3, Slot(LockMode::kExclusive, 1), 0);
  engine.Release(3, LockMode::kExclusive, 1, false, 0);
  EXPECT_TRUE(engine.QueueEmpty(3));
  engine.DropDrained(3);
  EXPECT_FALSE(engine.Owns(3));
  EXPECT_EQ(engine.num_owned(), 0u);
}

// --- Deadlock-handling policies ---
// Age = txn id (smaller = older). kNoWait refuses any conflicting acquire;
// kWaitDie refuses a requester younger than a conflicting queued entry;
// kWoundWait revokes every younger conflicting entry (waiting or granted)
// before queuing the requester.

TEST(LockEnginePolicyTest, NoWaitRefusesConflictingAcquire) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.set_deadlock_policy(DeadlockPolicy::kNoWait);
  engine.Acquire(1, Slot(LockMode::kShared, 10), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 11), 0);
  EXPECT_EQ(sink.grants.size(), 2u);  // Shared-shared: no conflict.
  engine.Acquire(1, Slot(LockMode::kExclusive, 12), 0);
  ASSERT_EQ(sink.aborts.size(), 1u);  // Exclusive conflicts: refused.
  EXPECT_EQ(sink.aborts[0].slot.txn_id, 12u);
  EXPECT_EQ(sink.aborts[0].reason, AbortReason::kNoWait);
  EXPECT_EQ(engine.QueueDepth(1), 2u);  // Never queued.
  // Same-txn retransmit does not self-conflict.
  engine.Acquire(2, Slot(LockMode::kExclusive, 20), 0);
  engine.Acquire(2, Slot(LockMode::kExclusive, 20), 0);
  EXPECT_EQ(sink.aborts.size(), 1u);
}

TEST(LockEnginePolicyTest, WaitDieAbortsYoungerLetsOlderWait) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.set_deadlock_policy(DeadlockPolicy::kWaitDie);
  engine.Acquire(1, Slot(LockMode::kExclusive, 10), 0);
  // Younger (larger txn id) conflicting requester dies.
  engine.Acquire(1, Slot(LockMode::kExclusive, 20), 0);
  ASSERT_EQ(sink.aborts.size(), 1u);
  EXPECT_EQ(sink.aborts[0].slot.txn_id, 20u);
  EXPECT_EQ(sink.aborts[0].reason, AbortReason::kWaitDie);
  // Older conflicting requester waits (no abort, no grant yet).
  engine.Acquire(1, Slot(LockMode::kExclusive, 5), 0);
  EXPECT_EQ(sink.aborts.size(), 1u);
  EXPECT_EQ(engine.QueueDepth(1), 2u);
  engine.Release(1, LockMode::kExclusive, 10, false, 1);
  ASSERT_EQ(sink.grants.size(), 2u);
  EXPECT_EQ(sink.grants[1].slot.txn_id, 5u);
}

TEST(LockEnginePolicyTest, WoundWaitRevokesAllYoungerThenQueues) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.set_deadlock_policy(DeadlockPolicy::kWoundWait);
  // Two granted shared holders, both younger than the wounding exclusive.
  engine.Acquire(1, Slot(LockMode::kShared, 20), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 30), 0);
  ASSERT_EQ(sink.grants.size(), 2u);
  engine.Acquire(1, Slot(LockMode::kExclusive, 10), 5);
  // Both shared holders wounded (queue order), then the exclusive granted.
  ASSERT_EQ(sink.aborts.size(), 2u);
  EXPECT_EQ(sink.aborts[0].slot.txn_id, 20u);
  EXPECT_EQ(sink.aborts[1].slot.txn_id, 30u);
  EXPECT_EQ(sink.aborts[0].reason, AbortReason::kWound);
  ASSERT_EQ(sink.grants.size(), 3u);
  EXPECT_EQ(sink.grants[2].slot.txn_id, 10u);
  // Every wound delivered before the grant it enables.
  EXPECT_LT(sink.aborts[1].seq, sink.grants[2].seq);
  EXPECT_EQ(engine.QueueDepth(1), 1u);
  // An older holder survives: younger exclusive queues behind it.
  engine.Acquire(1, Slot(LockMode::kExclusive, 40), 6);
  EXPECT_EQ(sink.aborts.size(), 2u);
  EXPECT_EQ(engine.QueueDepth(1), 2u);
}

TEST(LockEnginePolicyTest, WoundWaitRevokesMidQueueWaiterAndRegrants) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.set_deadlock_policy(DeadlockPolicy::kWoundWait);
  // [X(5 granted), X(30 waiting), S(6 waiting)]: exclusive 10 arrives.
  // Only X(30) is younger than 10; X(5) and S(6) are older and survive,
  // and the prefix re-grant promotes nothing while X(5) still holds.
  engine.Acquire(1, Slot(LockMode::kExclusive, 5), 0);
  engine.Acquire(1, Slot(LockMode::kExclusive, 30), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 6), 0);
  ASSERT_EQ(sink.grants.size(), 1u);
  engine.Acquire(1, Slot(LockMode::kExclusive, 10), 2);
  ASSERT_EQ(sink.aborts.size(), 1u);
  EXPECT_EQ(sink.aborts[0].slot.txn_id, 30u);
  EXPECT_EQ(sink.grants.size(), 1u);  // Holder X(5) unaffected.
  EXPECT_EQ(engine.QueueDepth(1), 3u);  // [X5, S6, X10].
  engine.Release(1, LockMode::kExclusive, 5, false, 3);
  ASSERT_EQ(sink.grants.size(), 2u);
  EXPECT_EQ(sink.grants[1].slot.txn_id, 6u);
}

// Regression: under a policy, a shared release must remove the releaser's
// own entry, not blind-pop the front. The fuzzer caught the blind pop
// leaving an entry labeled with an already-released txn: a later wound
// then removed the wrong holder's entry and granted an exclusive over a
// live shared holder.
TEST(LockEnginePolicyTest, PolicySharedReleaseRemovesOwnEntry) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.set_deadlock_policy(DeadlockPolicy::kWoundWait);
  engine.Acquire(1, Slot(LockMode::kShared, 10), 0);
  engine.Acquire(1, Slot(LockMode::kShared, 20), 0);
  ASSERT_EQ(sink.grants.size(), 2u);
  // Txn 20 (rear of the granted run) releases; txn 10 must remain.
  EXPECT_EQ(engine.Release(1, LockMode::kShared, 20, false, 1),
            ReleaseOutcome::kApplied);
  EXPECT_EQ(engine.QueueDepth(1), 1u);
  // An exclusive older than both arrives: the wound must name txn 10 (the
  // real survivor). With the blind pop it would have named 20 — and
  // granted X while 10 still held.
  engine.Acquire(1, Slot(LockMode::kExclusive, 5), 2);
  ASSERT_EQ(sink.aborts.size(), 1u);
  EXPECT_EQ(sink.aborts[0].slot.txn_id, 10u);
  ASSERT_EQ(sink.grants.size(), 3u);
  EXPECT_EQ(sink.grants[2].slot.txn_id, 5u);
  // A shared release whose txn holds nothing (e.g. crossed a wound in
  // flight) is stale and must not pop anyone.
  engine.Acquire(2, Slot(LockMode::kShared, 40), 3);
  EXPECT_EQ(engine.Release(2, LockMode::kShared, 41, false, 4),
            ReleaseOutcome::kStale);
  EXPECT_EQ(engine.QueueDepth(2), 1u);
}

TEST(LockEnginePolicyTest, RemoveTxnClearsWaitersAndPausedEntries) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.set_deadlock_policy(DeadlockPolicy::kWoundWait);
  // Ascending ages, so wound-wait itself removes nothing on arrival.
  engine.Acquire(1, Slot(LockMode::kExclusive, 5), 0);
  engine.Acquire(1, Slot(LockMode::kExclusive, 7), 0);
  engine.Acquire(1, Slot(LockMode::kExclusive, 9), 0);
  // Cancel txn 9's pending entry (e.g. wounded elsewhere, acquire in
  // flight): removed without blocking, then release cascades past it.
  const LockEngine::RemoveResult removed =
      engine.RemoveTxn(1, 9, 1, /*notify=*/false);
  EXPECT_EQ(removed.removed, 1u);
  EXPECT_EQ(removed.removed_granted, 0u);
  engine.Release(1, LockMode::kExclusive, 5, false, 2);
  ASSERT_EQ(sink.grants.size(), 2u);
  EXPECT_EQ(sink.grants[1].slot.txn_id, 7u);
  // Paused-buffer entries are removed too.
  engine.SetPaused(3, true);
  engine.Acquire(3, Slot(LockMode::kExclusive, 9), 3);
  EXPECT_EQ(engine.RemoveTxn(3, 9, 4, /*notify=*/false).removed, 1u);
  EXPECT_EQ(engine.TakePausedBuffer(3).size(), 0u);
}

// --- Flat-table / slab-queue migration coverage ---
// The wait queue is a chain of 2-entry slab chunks, held only while the
// queue is non-empty; the table is open-addressing with tombstones. These
// tests walk every chunk edge: growth into a chain, draining back to no
// chunk, cascade runs crossing chunk boundaries, deep paused buffers, deep
// adopted backlogs, and table rehash/tombstone reuse.

TEST(LockEngineTest, DeepQueueSpillsToSlabAndPreservesFifo) {
  CapturingSink sink;
  LockEngine engine(sink);
  constexpr TxnId kWaiters = 20;  // A chunk holds 2; forces chunk chains.
  for (TxnId t = 1; t <= kWaiters; ++t) {
    engine.Acquire(1, Slot(LockMode::kExclusive, t), t);
  }
  ASSERT_EQ(sink.grants.size(), 1u);
  EXPECT_EQ(engine.QueueDepth(1), kWaiters);
  for (TxnId t = 1; t <= kWaiters; ++t) {
    EXPECT_EQ(engine.Release(1, LockMode::kExclusive, t, false, 100 + t),
              ReleaseOutcome::kApplied);
  }
  // Strict FIFO across chunks: grant t, then t+1, ... up to kWaiters.
  ASSERT_EQ(sink.grants.size(), kWaiters);
  for (TxnId t = 1; t <= kWaiters; ++t) {
    EXPECT_EQ(sink.grants[t - 1].slot.txn_id, t);
  }
  EXPECT_TRUE(engine.QueueEmpty(1));
  EXPECT_EQ(sink.wait_ends.size(), kWaiters - 1);  // All but the first.
}

TEST(LockEngineTest, SpilledQueueRevertsToInlineAndRegrows) {
  CapturingSink sink;
  LockEngine engine(sink);
  // Grow past one chunk, drain to empty (the queue hands its chunks back),
  // then regrow — twice, to catch chunk-recycling bugs.
  for (int round = 0; round < 2; ++round) {
    const TxnId base = static_cast<TxnId>(round) * 100;
    for (TxnId t = 1; t <= 10; ++t) {
      engine.Acquire(2, Slot(LockMode::kExclusive, base + t), 0);
    }
    EXPECT_EQ(engine.QueueDepth(2), 10u);
    for (TxnId t = 1; t <= 10; ++t) {
      EXPECT_EQ(engine.Release(2, LockMode::kExclusive, base + t, false, 0),
                ReleaseOutcome::kApplied);
    }
    EXPECT_TRUE(engine.QueueEmpty(2));
  }
  ASSERT_EQ(sink.grants.size(), 20u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sink.grants[i].slot.txn_id, i + 1);
    EXPECT_EQ(sink.grants[10 + i].slot.txn_id, 100 + i + 1);
  }
}

TEST(LockEngineTest, SharedRunCascadeCrossesSpillBoundary) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.Acquire(1, Slot(LockMode::kExclusive, 1), 0);
  // 10 shared waiters + a trailing exclusive: the E->S cascade run spans
  // several slab chunks.
  for (TxnId t = 2; t <= 11; ++t) {
    engine.Acquire(1, Slot(LockMode::kShared, t), 0);
  }
  engine.Acquire(1, Slot(LockMode::kExclusive, 12), 0);
  ASSERT_EQ(sink.grants.size(), 1u);
  EXPECT_EQ(engine.Release(1, LockMode::kExclusive, 1, false, 77),
            ReleaseOutcome::kApplied);
  // All 10 shareds granted in order, re-stamped; the exclusive still waits.
  ASSERT_EQ(sink.grants.size(), 11u);
  for (TxnId t = 2; t <= 11; ++t) {
    EXPECT_EQ(sink.grants[t - 1].slot.txn_id, t);
    EXPECT_EQ(sink.grants[t - 1].slot.timestamp, 77u);
  }
  EXPECT_EQ(engine.QueueDepth(1), 11u);
}

TEST(LockEngineTest, PausedBufferSpillsBeyondInlineCapacity) {
  CapturingSink sink;
  LockEngine engine(sink);
  engine.SetPaused(5, true);
  for (TxnId t = 1; t <= 12; ++t) {
    engine.Acquire(5, Slot(LockMode::kExclusive, t), t);
  }
  EXPECT_TRUE(sink.grants.empty());
  EXPECT_EQ(engine.TotalQueueDepth(), 12u);
  const std::deque<QueueSlot> buffered = engine.TakePausedBuffer(5);
  ASSERT_EQ(buffered.size(), 12u);
  for (std::size_t i = 0; i < buffered.size(); ++i) {
    EXPECT_EQ(buffered[i].txn_id, i + 1);  // Buffer order preserved.
  }
  EXPECT_EQ(engine.TotalQueueDepth(), 0u);
}

TEST(LockEngineTest, AdoptQueueInstallsDeepBacklog) {
  CapturingSink sink;
  LockEngine engine(sink);
  std::deque<QueueSlot> backlog;
  for (TxnId t = 1; t <= 6; ++t) {
    backlog.push_back(Slot(LockMode::kShared, t));
  }
  for (TxnId t = 7; t <= 10; ++t) {
    backlog.push_back(Slot(LockMode::kExclusive, t));
  }
  engine.AdoptQueue(4, std::move(backlog), 300);
  // Leading shared run (6 entries) granted; the backlog spans five chunks.
  ASSERT_EQ(sink.grants.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sink.grants[i].slot.txn_id, i + 1);
    EXPECT_EQ(sink.grants[i].slot.timestamp, 300u);
  }
  EXPECT_EQ(engine.QueueDepth(4), 10u);
  // Draining the adopted queue grants the exclusives one by one.
  for (TxnId t = 1; t <= 6; ++t) {
    EXPECT_EQ(engine.Release(4, LockMode::kShared, t, false, 301),
              ReleaseOutcome::kApplied);
  }
  ASSERT_EQ(sink.grants.size(), 7u);
  EXPECT_EQ(sink.grants[6].slot.txn_id, 7u);
}

TEST(LockEngineTest, TableGrowsDropsAndReusesManyLocks) {
  CapturingSink sink;
  LockEngine engine(sink);
  constexpr LockId kLocks = 5000;  // Forces several rehash generations.
  for (LockId l = 1; l <= kLocks; ++l) {
    engine.Acquire(l, Slot(LockMode::kExclusive, l), 0);
  }
  EXPECT_EQ(engine.num_owned(), kLocks);
  EXPECT_EQ(sink.grants.size(), kLocks);
  for (LockId l = 1; l <= kLocks; ++l) {
    ASSERT_TRUE(engine.Owns(l));
    EXPECT_EQ(engine.QueueDepth(l), 1u);
  }
  // Drop every other lock (tombstones), then verify lookups still land.
  for (LockId l = 1; l <= kLocks; l += 2) {
    engine.Release(l, LockMode::kExclusive, l, false, 0);
    engine.DropDrained(l);
  }
  EXPECT_EQ(engine.num_owned(), kLocks / 2);
  for (LockId l = 1; l <= kLocks; ++l) {
    EXPECT_EQ(engine.Owns(l), l % 2 == 0);
  }
  // Re-create the dropped half: tombstone slots and freed state indices
  // must be reused without disturbing the survivors.
  for (LockId l = 1; l <= kLocks; l += 2) {
    engine.Acquire(l, Slot(LockMode::kShared, l + kLocks), 0);
  }
  EXPECT_EQ(engine.num_owned(), kLocks);
  EXPECT_EQ(engine.TotalQueueDepth(), kLocks);
  for (LockId l = 1; l <= kLocks; ++l) EXPECT_TRUE(engine.Owns(l));
  EXPECT_EQ(engine.OwnedLocks().size(), kLocks);
}

// Differential test: the flat-table engine must be observationally
// identical to a straightforward map-of-deques reference model of
// Algorithm 2 — same grant stream, same release outcomes, same depths,
// same harvested demand counters — over a randomized workload that mixes
// valid releases, stale/mismatched releases, and queue depths well past
// one slab chunk.
class ReferenceEngine {
 public:
  struct RefLock {
    std::deque<QueueSlot> queue;
    std::uint32_t xcnt = 0;
    std::uint64_t req_count = 0;
    std::uint32_t max_depth = 1;
  };

  explicit ReferenceEngine(CapturingSink& sink) : sink_(sink) {}

  void set_deadlock_policy(DeadlockPolicy policy) { policy_ = policy; }

  static bool Conflicts(const QueueSlot& a, const QueueSlot& b) {
    if (a.txn_id == b.txn_id) return false;
    return a.mode == LockMode::kExclusive || b.mode == LockMode::kExclusive;
  }

  static std::uint32_t GrantedCount(const RefLock& st) {
    if (st.queue.empty()) return 0;
    if (st.queue.front().mode == LockMode::kExclusive) return 1;
    std::uint32_t granted = 0;
    for (const QueueSlot& e : st.queue) {
      if (e.mode == LockMode::kExclusive) break;
      ++granted;
    }
    return granted;
  }

  void Acquire(LockId lock, QueueSlot slot, SimTime now) {
    RefLock& st = locks_[lock];
    ++st.req_count;
    slot.timestamp = now;
    if (policy_ != DeadlockPolicy::kNone && !st.queue.empty()) {
      if (policy_ == DeadlockPolicy::kNoWait) {
        for (const QueueSlot& e : st.queue) {
          if (Conflicts(e, slot)) {
            sink_.DeliverAbort(lock, slot, AbortReason::kNoWait);
            return;
          }
        }
      } else if (policy_ == DeadlockPolicy::kWaitDie) {
        for (const QueueSlot& e : st.queue) {
          if (e.txn_id < slot.txn_id && Conflicts(e, slot)) {
            sink_.DeliverAbort(lock, slot, AbortReason::kWaitDie);
            return;
          }
        }
      } else if (policy_ == DeadlockPolicy::kWoundWait) {
        // Remove every younger conflicting entry front-to-back (each
        // wound delivered as it is removed), then re-grant the promoted
        // prefix — mirroring RemoveMatching's abort-before-grant order.
        std::uint32_t granted_now = GrantedCount(st);
        std::size_t pos = 0;
        for (auto it = st.queue.begin(); it != st.queue.end();) {
          if (it->txn_id > slot.txn_id && Conflicts(*it, slot)) {
            const QueueSlot victim = *it;
            it = st.queue.erase(it);
            if (victim.mode == LockMode::kExclusive) --st.xcnt;
            if (pos < granted_now) --granted_now;
            sink_.DeliverAbort(lock, victim, AbortReason::kWound);
          } else {
            ++it;
            ++pos;
          }
        }
        const std::uint32_t target = GrantedCount(st);
        for (std::uint32_t p = granted_now; p < target; ++p) {
          st.queue[p].timestamp = now;
          sink_.DeliverGrant(lock, st.queue[p]);
        }
      }
    }
    const bool was_empty = st.queue.empty();
    const bool all_shared = st.xcnt == 0;
    st.queue.push_back(slot);
    st.max_depth = std::max(
        st.max_depth, static_cast<std::uint32_t>(st.queue.size()));
    if (slot.mode == LockMode::kExclusive) ++st.xcnt;
    if (was_empty || (all_shared && slot.mode == LockMode::kShared)) {
      sink_.DeliverGrant(lock, st.queue.back());
    }
  }

  ReleaseOutcome Release(LockId lock, LockMode mode, TxnId txn,
                         SimTime now) {
    auto it = locks_.find(lock);
    if (it == locks_.end() || it->second.queue.empty()) {
      return ReleaseOutcome::kStale;
    }
    RefLock& st = it->second;
    const QueueSlot released = st.queue.front();
    if (released.mode != mode ||
        (mode == LockMode::kExclusive && released.txn_id != txn)) {
      return ReleaseOutcome::kMismatched;
    }
    std::size_t pos = 0;
    if (policy_ != DeadlockPolicy::kNone && mode == LockMode::kShared &&
        released.txn_id != txn) {
      // Txn-exact shared release (policy queues keep labels accurate).
      bool found = false;
      for (; pos < st.queue.size(); ++pos) {
        if (st.queue[pos].mode != LockMode::kShared) break;
        if (st.queue[pos].txn_id == txn) {
          found = true;
          break;
        }
      }
      if (!found) return ReleaseOutcome::kStale;
    }
    st.queue.erase(st.queue.begin() + pos);
    if (released.mode == LockMode::kExclusive) --st.xcnt;
    if (st.queue.empty()) return ReleaseOutcome::kApplied;
    if (st.queue.front().mode == LockMode::kExclusive) {
      st.queue.front().timestamp = now;
      sink_.DeliverGrant(lock, st.queue.front());
      return ReleaseOutcome::kApplied;
    }
    if (released.mode == LockMode::kShared) return ReleaseOutcome::kApplied;
    for (QueueSlot& slot : st.queue) {
      if (slot.mode == LockMode::kExclusive) break;
      slot.timestamp = now;
      sink_.DeliverGrant(lock, slot);
    }
    return ReleaseOutcome::kApplied;
  }

  std::size_t QueueDepth(LockId lock) const {
    auto it = locks_.find(lock);
    return it == locks_.end() ? 0 : it->second.queue.size();
  }

  std::size_t TotalQueueDepth() const {
    std::size_t total = 0;
    for (const auto& [lock, st] : locks_) total += st.queue.size();
    return total;
  }

  std::map<LockId, RefLock>& locks() { return locks_; }

 private:
  CapturingSink& sink_;
  DeadlockPolicy policy_ = DeadlockPolicy::kNone;
  std::map<LockId, RefLock> locks_;
};

TEST(LockEngineTest, RandomizedDifferentialMatchesReferenceModel) {
  CapturingSink engine_sink;
  CapturingSink ref_sink;
  LockEngine engine(engine_sink);
  ReferenceEngine ref(ref_sink);

  constexpr LockId kLockSpace = 24;  // Few locks -> deep queues.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  TxnId next_txn = 1;
  SimTime now = 0;
  for (int op = 0; op < 20000; ++op) {
    ++now;
    const LockId lock = 1 + next() % kLockSpace;
    const std::uint64_t roll = next() % 100;
    if (roll < 55) {
      const LockMode mode =
          next() % 10 < 3 ? LockMode::kShared : LockMode::kExclusive;
      const QueueSlot slot = Slot(mode, next_txn++);
      engine.Acquire(lock, slot, now);
      ref.Acquire(lock, slot, now);
    } else if (roll < 90) {
      // Valid release of the current head (if any) — drives the cascade.
      const auto it = ref.locks().find(lock);
      if (it == ref.locks().end() || it->second.queue.empty()) continue;
      const QueueSlot head = it->second.queue.front();
      const ReleaseOutcome got =
          engine.Release(lock, head.mode, head.txn_id, false, now);
      const ReleaseOutcome want =
          ref.Release(lock, head.mode, head.txn_id, now);
      ASSERT_EQ(got, want);
      ASSERT_EQ(got, ReleaseOutcome::kApplied);
    } else {
      // Bogus release: random mode/txn. Both sides must agree on the
      // verdict (kStale / kMismatched / occasionally kApplied).
      const LockMode mode =
          next() % 2 == 0 ? LockMode::kShared : LockMode::kExclusive;
      const TxnId txn = 1 + next() % (next_txn > 1 ? next_txn - 1 : 1);
      const ReleaseOutcome got = engine.Release(lock, mode, txn, false, now);
      const ReleaseOutcome want = ref.Release(lock, mode, txn, now);
      ASSERT_EQ(got, want);
    }
    // Grant streams must match op for op (same order, same stamps).
    ASSERT_EQ(engine_sink.grants.size(), ref_sink.grants.size())
        << "diverged at op " << op;
    if (!engine_sink.grants.empty()) {
      const CapturedGrant& a = engine_sink.grants.back();
      const CapturedGrant& b = ref_sink.grants.back();
      ASSERT_EQ(a.lock, b.lock);
      ASSERT_EQ(a.slot.txn_id, b.slot.txn_id);
      ASSERT_EQ(a.slot.mode, b.slot.mode);
      ASSERT_EQ(a.slot.timestamp, b.slot.timestamp);
    }
    ASSERT_EQ(engine.QueueDepth(lock), ref.QueueDepth(lock));
  }

  // Full-stream and aggregate-state comparison.
  ASSERT_EQ(engine_sink.grants.size(), ref_sink.grants.size());
  for (std::size_t i = 0; i < engine_sink.grants.size(); ++i) {
    ASSERT_EQ(engine_sink.grants[i].lock, ref_sink.grants[i].lock);
    ASSERT_EQ(engine_sink.grants[i].slot.txn_id,
              ref_sink.grants[i].slot.txn_id);
  }
  EXPECT_EQ(engine.TotalQueueDepth(), ref.TotalQueueDepth());

  // HarvestDemands equivalence: same per-lock request counts and max
  // depths as the reference tracked (order-insensitive).
  std::vector<LockDemand> demands;
  engine.HarvestDemands(/*window_sec=*/1.0, demands);
  std::map<LockId, std::pair<double, std::uint32_t>> harvested;
  for (const LockDemand& d : demands) {
    harvested[d.lock] = {d.rate, d.contention};
  }
  for (const auto& [lock, st] : ref.locks()) {
    if (st.req_count == 0) {
      EXPECT_EQ(harvested.count(lock), 0u);
      continue;
    }
    ASSERT_EQ(harvested.count(lock), 1u) << "lock " << lock;
    EXPECT_DOUBLE_EQ(harvested[lock].first,
                     static_cast<double>(st.req_count));
    EXPECT_EQ(harvested[lock].second, std::max(1u, st.max_depth));
  }
}

// Per-policy differential: over 20k randomized ops per policy, the engine
// and the reference must agree on the merged grant+abort stream (order,
// txns, modes, reasons, stamps), on every release verdict, and on queue
// depths. Valid releases target a *random granted entry*, not just the
// head, so the txn-exact shared-release path is exercised throughout.
TEST(LockEnginePolicyTest, RandomizedDifferentialPerPolicy) {
  for (const DeadlockPolicy policy :
       {DeadlockPolicy::kNoWait, DeadlockPolicy::kWaitDie,
        DeadlockPolicy::kWoundWait}) {
    SCOPED_TRACE(ToString(policy));
    CapturingSink engine_sink;
    CapturingSink ref_sink;
    LockEngine engine(engine_sink);
    ReferenceEngine ref(ref_sink);
    engine.set_deadlock_policy(policy);
    ref.set_deadlock_policy(policy);

    constexpr LockId kLockSpace = 16;  // Few locks -> constant conflicts.
    std::uint64_t rng =
        0x51ed270b7f4a7c15ull + static_cast<std::uint64_t>(policy);
    const auto next = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };

    // Txn ids (= ages) are drawn from a window rather than monotonically:
    // age inversions are what make wait-die die and wound-wait wound. Two
    // logical txns sharing an id just act as one txn on both sides.
    constexpr TxnId kTxnSpace = 4096;
    SimTime now = 0;
    for (int op = 0; op < 20000; ++op) {
      ++now;
      const LockId lock = 1 + next() % kLockSpace;
      const std::uint64_t roll = next() % 100;
      if (roll < 55) {
        const LockMode mode =
            next() % 10 < 4 ? LockMode::kShared : LockMode::kExclusive;
        const QueueSlot slot = Slot(mode, 1 + next() % kTxnSpace);
        engine.Acquire(lock, slot, now);
        ref.Acquire(lock, slot, now);
      } else if (roll < 90) {
        // Release a random *granted* entry (head or mid shared run).
        const auto it = ref.locks().find(lock);
        if (it == ref.locks().end() || it->second.queue.empty()) continue;
        const std::uint32_t granted =
            ReferenceEngine::GrantedCount(it->second);
        if (granted == 0) continue;
        const QueueSlot holder = it->second.queue[next() % granted];
        const ReleaseOutcome got =
            engine.Release(lock, holder.mode, holder.txn_id, false, now);
        const ReleaseOutcome want =
            ref.Release(lock, holder.mode, holder.txn_id, now);
        ASSERT_EQ(got, want) << "op " << op;
        ASSERT_EQ(got, ReleaseOutcome::kApplied) << "op " << op;
      } else {
        // Bogus release: random mode/txn; verdicts must agree.
        const LockMode mode =
            next() % 2 == 0 ? LockMode::kShared : LockMode::kExclusive;
        const TxnId txn = 1 + next() % kTxnSpace;
        const ReleaseOutcome got =
            engine.Release(lock, mode, txn, false, now);
        const ReleaseOutcome want = ref.Release(lock, mode, txn, now);
        ASSERT_EQ(got, want) << "op " << op;
      }
      ASSERT_EQ(engine_sink.events, ref_sink.events) << "op " << op;
      ASSERT_EQ(engine.QueueDepth(lock), ref.QueueDepth(lock))
          << "op " << op;
    }

    ASSERT_EQ(engine_sink.grants.size(), ref_sink.grants.size());
    for (std::size_t i = 0; i < engine_sink.grants.size(); ++i) {
      const CapturedGrant& a = engine_sink.grants[i];
      const CapturedGrant& b = ref_sink.grants[i];
      ASSERT_EQ(a.lock, b.lock) << "grant " << i;
      ASSERT_EQ(a.slot.txn_id, b.slot.txn_id) << "grant " << i;
      ASSERT_EQ(a.slot.mode, b.slot.mode) << "grant " << i;
      ASSERT_EQ(a.slot.timestamp, b.slot.timestamp) << "grant " << i;
      ASSERT_EQ(a.seq, b.seq) << "grant " << i;
    }
    ASSERT_EQ(engine_sink.aborts.size(), ref_sink.aborts.size());
    for (std::size_t i = 0; i < engine_sink.aborts.size(); ++i) {
      const CapturedAbort& a = engine_sink.aborts[i];
      const CapturedAbort& b = ref_sink.aborts[i];
      ASSERT_EQ(a.lock, b.lock) << "abort " << i;
      ASSERT_EQ(a.slot.txn_id, b.slot.txn_id) << "abort " << i;
      ASSERT_EQ(a.reason, b.reason) << "abort " << i;
      ASSERT_EQ(a.seq, b.seq) << "abort " << i;
    }
    EXPECT_EQ(engine.TotalQueueDepth(), ref.TotalQueueDepth());
    // The run must actually have exercised the policy.
    EXPECT_GT(engine_sink.aborts.size(), 100u);
    EXPECT_GT(engine_sink.grants.size(), 1000u);
  }
}

}  // namespace
}  // namespace netlock
