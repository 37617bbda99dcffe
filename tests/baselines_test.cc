// Tests for the baseline lock managers: DSLR's bakery semantics and ticket
// reset, DrTM's CAS/fail-and-retry, NetChain's KV locking with granularity
// coarsening, and the server-only manager.
#include <gtest/gtest.h>

#include "baselines/drtm.h"
#include "baselines/dslr.h"
#include "baselines/netchain.h"
#include "baselines/server_only.h"
#include "test_util.h"

namespace netlock {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : net_(sim_, /*latency=*/2000) {}

  Simulator sim_;
  Network net_;
};

// --- DSLR ---

TEST(DslrPackTest, FieldHelpers) {
  const std::uint64_t w = DslrPack(1, 2, 3, 4);
  EXPECT_EQ(DslrMaxX(w), 1);
  EXPECT_EQ(DslrMaxS(w), 2);
  EXPECT_EQ(DslrNowX(w), 3);
  EXPECT_EQ(DslrNowS(w), 4);
}

class DslrTest : public BaselineTest {
 protected:
  DslrTest() : manager_(net_, /*num_servers=*/2, /*lock_space=*/100) {
    machine_ = std::make_unique<ClientMachine>(net_);
  }

  DslrManager manager_;
  std::unique_ptr<ClientMachine> machine_;
};

TEST_F(DslrTest, ExclusiveGrantsImmediatelyWhenFree) {
  auto session = manager_.CreateSession(*machine_);
  AcquireResult result = AcquireResult::kTimeout;
  session->Acquire(5, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(result, AcquireResult::kGranted);
}

TEST_F(DslrTest, FcfsOrderingAcrossSessions) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  auto s3 = manager_.CreateSession(*machine_);
  std::vector<int> order;
  s1->Acquire(5, LockMode::kExclusive, 1, 0,
              [&](AcquireResult) { order.push_back(1); });
  sim_.RunUntil(50 * kMicrosecond);
  s2->Acquire(5, LockMode::kExclusive, 2, 0,
              [&](AcquireResult) { order.push_back(2); });
  sim_.RunUntil(100 * kMicrosecond);
  s3->Acquire(5, LockMode::kExclusive, 3, 0,
              [&](AcquireResult) { order.push_back(3); });
  sim_.RunUntil(kMillisecond);
  ASSERT_EQ(order.size(), 1u);  // Only the first is granted.
  s1->Release(5, LockMode::kExclusive, 1);
  sim_.RunUntil(2 * kMillisecond);
  s2->Release(5, LockMode::kExclusive, 2);
  sim_.RunUntil(3 * kMillisecond);
  s3->Release(5, LockMode::kExclusive, 3);
  sim_.RunUntil(4 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));  // Bakery FCFS.
}

TEST_F(DslrTest, SharedLocksCoexist) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  int granted = 0;
  s1->Acquire(5, LockMode::kShared, 1, 0,
              [&](AcquireResult) { ++granted; });
  s2->Acquire(5, LockMode::kShared, 2, 0,
              [&](AcquireResult) { ++granted; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(granted, 2);
}

TEST_F(DslrTest, ExclusiveWaitsForSharedHolders) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  bool x_granted = false;
  s1->Acquire(5, LockMode::kShared, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  s2->Acquire(5, LockMode::kExclusive, 2, 0,
              [&](AcquireResult) { x_granted = true; });
  sim_.RunUntil(kMillisecond);
  EXPECT_FALSE(x_granted);
  s1->Release(5, LockMode::kShared, 1);
  sim_.RunUntil(200 * kMillisecond);  // Proportional-wait polling.
  EXPECT_TRUE(x_granted);
}

TEST_F(DslrTest, PollingCostsExtraReads) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  s1->Acquire(5, LockMode::kExclusive, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  bool granted = false;
  s2->Acquire(5, LockMode::kExclusive, 2, 0, [&](AcquireResult r) {
    granted = r == AcquireResult::kGranted;
  });
  sim_.RunUntil(2 * kMillisecond);
  // Holder never releases: the waiter burns polling READs and is never
  // granted (it may eventually report kTimeout and go detached).
  EXPECT_FALSE(granted);
  EXPECT_GT(manager_.total_polls(), 10u);
}

TEST_F(DslrTest, DetachedTicketConsumedAfterTimeout) {
  // A waiter that times out must still consume-and-release its ticket when
  // granted, so tickets behind it make progress.
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  auto s3 = manager_.CreateSession(*machine_);
  s1->Acquire(5, LockMode::kExclusive, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  AcquireResult second = AcquireResult::kGranted;
  s2->Acquire(5, LockMode::kExclusive, 2, 0,
              [&](AcquireResult r) { second = r; });
  // Hold long enough for s2 to exhaust max_polls and detach.
  sim_.RunUntil(100 * kMillisecond);
  EXPECT_EQ(second, AcquireResult::kTimeout);
  bool third = false;
  s3->Acquire(5, LockMode::kExclusive, 3, 0,
              [&](AcquireResult r) { third = r == AcquireResult::kGranted; });
  // Now the holder releases; s2's detached ticket is consumed-and-released
  // automatically, letting s3 through.
  s1->Release(5, LockMode::kExclusive, 1);
  sim_.RunUntil(kSecond);
  EXPECT_TRUE(third);
}

TEST_F(DslrTest, TicketResetProtocolSurvivesWraparound) {
  // Force a tiny threshold so the reset path runs quickly.
  DslrConfig config;
  config.reset_threshold = 12;
  config.base_poll = 1 * kMicrosecond;
  config.per_hold_estimate = 1 * kMicrosecond;
  config.reset_backoff = 2 * kMicrosecond;
  DslrManager manager(net_, 1, 10, config);
  auto session = manager.CreateSession(*machine_);
  int granted = 0;
  // 50 sequential acquire/release pairs cross the threshold of 12 several
  // times; every request must still eventually be granted exactly once.
  std::function<void(int)> next = [&](int i) {
    if (i >= 50) return;
    session->Acquire(3, LockMode::kExclusive, i, 0, [&, i](AcquireResult r) {
      ASSERT_EQ(r, AcquireResult::kGranted);
      ++granted;
      session->Release(3, LockMode::kExclusive, i);
      next(i + 1);
    });
  };
  next(0);
  sim_.RunUntil(kSecond);
  EXPECT_EQ(granted, 50);
  EXPECT_GE(manager.total_resets(), 3u);
}

// --- DrTM ---

class DrtmTest : public BaselineTest {
 protected:
  DrtmTest() : manager_(net_, 1, 100) {
    machine_ = std::make_unique<ClientMachine>(net_);
  }

  DrtmManager manager_;
  std::unique_ptr<ClientMachine> machine_;
};

TEST_F(DrtmTest, ExclusiveCasGrant) {
  auto session = manager_.CreateSession(*machine_);
  AcquireResult result = AcquireResult::kTimeout;
  session->Acquire(1, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(result, AcquireResult::kGranted);
}

TEST_F(DrtmTest, ConflictCausesRetriesThenSucceeds) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  bool second = false;
  s1->Acquire(1, LockMode::kExclusive, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  s2->Acquire(1, LockMode::kExclusive, 2, 0,
              [&](AcquireResult) { second = true; });
  sim_.RunUntil(kMillisecond);
  EXPECT_FALSE(second);
  EXPECT_GT(manager_.total_retries(), 0u);
  s1->Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(20 * kMillisecond);  // Backoff can stretch the retry.
  EXPECT_TRUE(second);
}

TEST_F(DrtmTest, SharedReadersCoexistAndBlockWriter) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  auto s3 = manager_.CreateSession(*machine_);
  int readers = 0;
  bool writer = false;
  s1->Acquire(1, LockMode::kShared, 1, 0, [&](AcquireResult) { ++readers; });
  s2->Acquire(1, LockMode::kShared, 2, 0, [&](AcquireResult) { ++readers; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(readers, 2);
  s3->Acquire(1, LockMode::kExclusive, 3, 0,
              [&](AcquireResult) { writer = true; });
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_FALSE(writer);
  s1->Release(1, LockMode::kShared, 1);
  s2->Release(1, LockMode::kShared, 2);
  sim_.RunUntil(50 * kMillisecond);
  EXPECT_TRUE(writer);
}

TEST_F(DrtmTest, WriterBlocksReader) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  bool reader = false;
  s1->Acquire(1, LockMode::kExclusive, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  s2->Acquire(1, LockMode::kShared, 2, 0,
              [&](AcquireResult) { reader = true; });
  sim_.RunUntil(kMillisecond);
  EXPECT_FALSE(reader);
  s1->Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(50 * kMillisecond);
  EXPECT_TRUE(reader);
}

// --- NetChain ---

class NetChainTest : public BaselineTest {
 protected:
  NetChainTest() {
    NetChainConfig config;
    config.num_cells = 16;
    kv_ = std::make_unique<NetChainSwitch>(net_, config);
    machine_ = std::make_unique<ClientMachine>(net_);
  }

  std::unique_ptr<NetChainSwitch> kv_;
  std::unique_ptr<ClientMachine> machine_;
};

TEST_F(NetChainTest, GrantAndRelease) {
  NetChainSession session(*machine_, *kv_, 1);
  AcquireResult result = AcquireResult::kTimeout;
  session.Acquire(1, LockMode::kExclusive, 1, 0,
                  [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(result, AcquireResult::kGranted);
  session.Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(kv_->stats().releases, 1u);
}

TEST_F(NetChainTest, ContentionRetriesUntilFree) {
  NetChainSession s1(*machine_, *kv_, 1);
  NetChainSession s2(*machine_, *kv_, 2);
  bool second = false;
  s1.Acquire(1, LockMode::kExclusive, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  s2.Acquire(1, LockMode::kExclusive, 2, 0,
             [&](AcquireResult) { second = true; });
  sim_.RunUntil(kMillisecond);
  EXPECT_FALSE(second);
  EXPECT_GT(kv_->stats().busy_replies, 0u);
  s1.Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(20 * kMillisecond);
  EXPECT_TRUE(second);
  EXPECT_GT(s2.retries(), 0u);
}

TEST_F(NetChainTest, SharedDegradedToExclusive) {
  NetChainSession s1(*machine_, *kv_, 1);
  NetChainSession s2(*machine_, *kv_, 2);
  bool second = false;
  s1.Acquire(1, LockMode::kShared, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  s2.Acquire(1, LockMode::kShared, 2, 0,
             [&](AcquireResult) { second = true; });
  sim_.RunUntil(kMillisecond);
  EXPECT_FALSE(second);  // Shared does not coexist: NetChain's limitation.
}

TEST_F(NetChainTest, GranularityCollisionCreatesFalseConflict) {
  // 16 cells: locks 1 and 1+k collide for some k; find a colliding pair.
  LockId a = 1, b = 0;
  for (LockId candidate = 2; candidate < 2000; ++candidate) {
    if (kv_->CellFor(candidate) == kv_->CellFor(a)) {
      b = candidate;
      break;
    }
  }
  ASSERT_NE(b, 0u);
  NetChainSession s1(*machine_, *kv_, 1);
  NetChainSession s2(*machine_, *kv_, 2);
  bool second = false;
  s1.Acquire(a, LockMode::kExclusive, 1, 0, [](AcquireResult) {});
  sim_.RunUntil(100 * kMicrosecond);
  s2.Acquire(b, LockMode::kExclusive, 2, 0,
             [&](AcquireResult) { second = true; });
  sim_.RunUntil(kMillisecond);
  EXPECT_FALSE(second);  // Different locks, same coarse cell.
}

TEST_F(NetChainTest, ReentrantCellForSameTxn) {
  LockId a = 1, b = 0;
  for (LockId candidate = 2; candidate < 2000; ++candidate) {
    if (kv_->CellFor(candidate) == kv_->CellFor(a)) {
      b = candidate;
      break;
    }
  }
  ASSERT_NE(b, 0u);
  NetChainSession session(*machine_, *kv_, 1);
  int granted = 0;
  session.Acquire(a, LockMode::kExclusive, 7, 0,
                  [&](AcquireResult) { ++granted; });
  sim_.RunUntil(kMillisecond);
  session.Acquire(b, LockMode::kExclusive, 7, 0,
                  [&](AcquireResult) { ++granted; });
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(granted, 2);  // Same txn is not self-blocked.
}

// --- Server-only ---

class ServerOnlyTest : public BaselineTest {
 protected:
  ServerOnlyTest() : manager_(net_, LockServerConfig{}, 2) {
    machine_ = std::make_unique<ClientMachine>(net_);
  }

  ServerOnlyManager manager_;
  std::unique_ptr<ClientMachine> machine_;
};

TEST_F(ServerOnlyTest, GrantViaServer) {
  auto session = manager_.CreateSession(*machine_);
  AcquireResult result = AcquireResult::kTimeout;
  session->Acquire(1, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(result, AcquireResult::kGranted);
  EXPECT_EQ(manager_.Grants(), 1u);
}

TEST_F(ServerOnlyTest, FifoUnderContention) {
  auto s1 = manager_.CreateSession(*machine_);
  auto s2 = manager_.CreateSession(*machine_);
  std::vector<int> order;
  s1->Acquire(1, LockMode::kExclusive, 1, 0,
              [&](AcquireResult) { order.push_back(1); });
  sim_.RunUntil(100 * kMicrosecond);
  s2->Acquire(1, LockMode::kExclusive, 2, 0,
              [&](AcquireResult) { order.push_back(2); });
  sim_.RunUntil(kMillisecond);
  s1->Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(ServerOnlyTest, LocksPartitionAcrossServers) {
  // Different locks land on different servers (hash partitioning).
  bool differs = false;
  for (LockId lock = 0; lock < 32 && !differs; ++lock) {
    if (manager_.ServerNodeFor(lock) != manager_.ServerNodeFor(0)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace netlock
