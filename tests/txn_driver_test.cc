// The shared two-phase-locking driver under a recording sink: each
// transition once, plus the txn-id layout and the acquire order every
// front-end (TxnEngine, OpenLoopEngine, rt::RtClientPool) relies on.
#include "client/txn_driver.h"

#include <gtest/gtest.h>

#include <vector>

namespace netlock {
namespace {

struct Sent {
  TxnOp op;
  LockId lock;
  TxnId txn;

  friend bool operator==(const Sent&, const Sent&) = default;
};

struct RecordingSink {
  std::vector<Sent>* sent;

  void operator()(TxnOp op, const LockRequest& req, TxnId txn) const {
    sent->push_back({op, req.lock, txn});
  }
};

constexpr TxnOp kRel = TxnOp::kRelease;
constexpr TxnOp kCan = TxnOp::kCancel;

class TxnDriverTest : public ::testing::Test {
 protected:
  TxnDriverTest() : driver_(RecordingSink{&sent_}) {
    txn_.spec.locks = {{10, LockMode::kExclusive},
                       {20, LockMode::kShared},
                       {30, LockMode::kExclusive}};
  }

  /// Begins an attempt under a fresh id and grants its first `n` locks.
  TxnId BeginAndGrant(std::size_t n) {
    const TxnId id = ids_.Next();
    driver_.Begin(txn_, id, /*now=*/100);
    for (std::size_t i = 0; i < n; ++i) {
      driver_.Issue(txn_, 100, true);
      driver_.Grant(txn_, id, 150, true);
    }
    return id;
  }

  std::vector<Sent> sent_;
  TxnDriver<RecordingSink> driver_;
  TxnIdSource ids_{3};
  TxnState txn_;
};

TEST_F(TxnDriverTest, GrantAdvancesToNextLockThenAllHeld) {
  const TxnId id = ids_.Next();
  driver_.Begin(txn_, id, 0);
  EXPECT_EQ(driver_.Issue(txn_, 10, true).lock, 10u);
  EXPECT_EQ(driver_.Grant(txn_, id, 15, true), GrantStep::kAcquireNext);
  EXPECT_EQ(txn_.pending_lock(), 20u);
  EXPECT_EQ(driver_.Issue(txn_, 20, true).lock, 20u);
  EXPECT_EQ(driver_.Grant(txn_, id, 40, true), GrantStep::kAcquireNext);
  EXPECT_EQ(driver_.Issue(txn_, 40, true).lock, 30u);
  EXPECT_EQ(driver_.Grant(txn_, id, 47, true), GrantStep::kAllHeld);
  EXPECT_EQ(txn_.pending_lock(), kInvalidLock);
  EXPECT_TRUE(sent_.empty());  // Growing phase: nothing released.
  EXPECT_EQ(driver_.metrics().lock_requests, 3u);
  EXPECT_EQ(driver_.metrics().lock_grants, 3u);
  EXPECT_EQ(driver_.metrics().lock_latency.count(), 3u);
}

TEST_F(TxnDriverTest, CommitReleasesEveryLock) {
  const TxnId id = BeginAndGrant(3);
  EXPECT_TRUE(driver_.Commit(txn_, id, 400, true));
  EXPECT_EQ(sent_, (std::vector<Sent>{{kRel, 10, id}, {kRel, 20, id},
                                      {kRel, 30, id}}));
  EXPECT_FALSE(txn_.Is(id));
  EXPECT_EQ(driver_.counters().commits, 1u);
  EXPECT_EQ(driver_.counters().committed_lock_grants, 3u);
  EXPECT_EQ(driver_.counters().aborts, 0u);
  EXPECT_EQ(driver_.metrics().txn_commits, 1u);
}

TEST_F(TxnDriverTest, DieAbortReleasesOnlyTheHeldPrefix) {
  const TxnId id = BeginAndGrant(2);  // Holds 10 and 20; 30 is pending.
  EXPECT_TRUE(driver_.Abort(txn_, id, true));
  EXPECT_EQ(sent_, (std::vector<Sent>{{kRel, 10, id}, {kRel, 20, id}}));
  EXPECT_FALSE(txn_.Is(id));
  EXPECT_EQ(driver_.counters().aborts, 1u);
  EXPECT_EQ(driver_.counters().wounds, 0u);
  EXPECT_EQ(driver_.metrics().retries, 1u);
}

TEST_F(TxnDriverTest, WoundSkipsWoundedLockAndCancelsInFlightAcquire) {
  const TxnId id = BeginAndGrant(2);  // Holds 10 and 20; 30 in flight.
  EXPECT_TRUE(driver_.Wound(txn_, id, /*wounded=*/10, true));
  EXPECT_EQ(sent_, (std::vector<Sent>{{kRel, 20, id}, {kCan, 30, id}}));
  EXPECT_FALSE(txn_.Is(id));
  EXPECT_EQ(driver_.counters().wounds, 1u);
  EXPECT_EQ(driver_.counters().aborts, 1u);
}

TEST_F(TxnDriverTest, StaleGrantAndWoundForOldTxnIdAreIgnored) {
  const TxnId old_id = BeginAndGrant(1);
  ASSERT_TRUE(driver_.Abort(txn_, old_id, false));
  sent_.clear();
  // The retry: same spec, younger id.
  const TxnId id = ids_.Next();
  EXPECT_GT(id, old_id);
  driver_.Begin(txn_, id, 200);
  driver_.Issue(txn_, 200, false);
  EXPECT_EQ(driver_.Grant(txn_, old_id, 210, false), GrantStep::kStale);
  EXPECT_FALSE(driver_.Wound(txn_, old_id, 10, false));
  EXPECT_FALSE(driver_.Abort(txn_, old_id, false));
  EXPECT_TRUE(sent_.empty());
  EXPECT_EQ(txn_.next_lock, 0u);
  EXPECT_TRUE(txn_.Is(id));
  EXPECT_EQ(driver_.counters().aborts, 1u);
  EXPECT_EQ(driver_.counters().wounds, 0u);
}

TEST_F(TxnDriverTest, WoundDuringThinkTimeSuppressesCommit) {
  const TxnId id = BeginAndGrant(3);  // All held: executing.
  EXPECT_TRUE(driver_.Wound(txn_, id, /*wounded=*/20, true));
  // Nothing in flight, so nothing to cancel.
  EXPECT_EQ(sent_, (std::vector<Sent>{{kRel, 10, id}, {kRel, 30, id}}));
  sent_.clear();
  EXPECT_FALSE(driver_.Commit(txn_, id, 500, true));
  EXPECT_TRUE(sent_.empty());
  EXPECT_EQ(driver_.counters().commits, 0u);
  EXPECT_EQ(driver_.metrics().txn_commits, 0u);
}

TEST_F(TxnDriverTest, RecordingWindowGatesRunMetricsNotCounters) {
  const TxnId id = ids_.Next();
  driver_.Begin(txn_, id, 0);
  for (int i = 0; i < 3; ++i) {
    driver_.Issue(txn_, 0, false);
    driver_.Grant(txn_, id, 5, false);
  }
  EXPECT_TRUE(driver_.Commit(txn_, id, 9, false));
  EXPECT_EQ(driver_.metrics().lock_requests, 0u);
  EXPECT_EQ(driver_.metrics().lock_grants, 0u);
  EXPECT_EQ(driver_.metrics().txn_commits, 0u);
  EXPECT_EQ(driver_.counters().commits, 1u);
  EXPECT_EQ(driver_.counters().committed_lock_grants, 3u);
}

TEST(TxnOrderTest, SortsByConflictUnitExclusiveFirstAndDedups) {
  std::vector<LockRequest> locks = {{35, LockMode::kShared},
                                    {12, LockMode::kShared},
                                    {31, LockMode::kExclusive},
                                    {18, LockMode::kShared},
                                    {7, LockMode::kShared}};
  // Units of ten, as a coarsening backend would map them: 31 and 35 share
  // a unit (exclusive wins), 12 and 18 share one (lower id wins).
  OrderLockSet(locks, [](LockId lock) { return lock / 10; });
  EXPECT_EQ(locks, (std::vector<LockRequest>{{7, LockMode::kShared},
                                             {12, LockMode::kShared},
                                             {31, LockMode::kExclusive}}));
}

TEST(TxnIdTest, CounterStaysOutOfEngineBits) {
  const TxnId id =
      MakeTxnId(7, (std::uint64_t{1} << kTxnCounterBits) - 1);
  EXPECT_EQ(id >> kTxnCounterBits, 7u);
  EXPECT_EQ(EngineOfTxn(id), 7u);
}

TEST(TxnIdDeathTest, CounterOverflowIntoEngineBitsIsChecked) {
  // Regression: (engine_id << 40) | ++counter let an overflowing counter
  // silently corrupt the engine-id bits, aliasing txn ids across engines.
  EXPECT_DEATH(MakeTxnId(1, std::uint64_t{1} << kTxnCounterBits), "counter");
}

}  // namespace
}  // namespace netlock
