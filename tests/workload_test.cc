// Tests for the workload generators: normalization, microbenchmark
// parameters, TPC-C structure (mix, lock-id packing, modes, contention
// settings), the deadlock scenario's drifting hot window, and NextInto's
// reuse contract across every generator.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "workload/micro.h"
#include "workload/scenario.h"
#include "workload/tpcc.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace netlock {
namespace {

TEST(NormalizeTxnTest, SortsAndDedupes) {
  TxnSpec txn;
  txn.locks = {{5, LockMode::kShared},
               {2, LockMode::kExclusive},
               {5, LockMode::kExclusive},
               {2, LockMode::kExclusive}};
  NormalizeTxn(txn);
  ASSERT_EQ(txn.locks.size(), 2u);
  EXPECT_EQ(txn.locks[0].lock, 2u);
  EXPECT_EQ(txn.locks[1].lock, 5u);
  // Exclusive subsumes shared for the duplicated lock.
  EXPECT_EQ(txn.locks[1].mode, LockMode::kExclusive);
}

TEST(MicroWorkloadTest, RespectsLockRange) {
  MicroConfig config;
  config.num_locks = 10;
  config.first_lock = 100;
  MicroWorkload workload(config);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const TxnSpec txn = workload.Next(rng);
    for (const LockRequest& req : txn.locks) {
      EXPECT_GE(req.lock, 100u);
      EXPECT_LT(req.lock, 110u);
    }
  }
  EXPECT_EQ(workload.lock_space(), 110u);
}

TEST(MicroWorkloadTest, SharedFractionHonored) {
  MicroConfig config;
  config.num_locks = 1000;
  config.shared_fraction = 0.7;
  MicroWorkload workload(config);
  Rng rng(2);
  int shared = 0, total = 0;
  for (int i = 0; i < 10000; ++i) {
    for (const LockRequest& req : workload.Next(rng).locks) {
      ++total;
      if (req.mode == LockMode::kShared) ++shared;
    }
  }
  EXPECT_NEAR(static_cast<double>(shared) / total, 0.7, 0.02);
}

TEST(MicroWorkloadTest, LocksPerTxn) {
  MicroConfig config;
  config.num_locks = 10000;
  config.locks_per_txn = 8;
  MicroWorkload workload(config);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    // Normalization can merge duplicates, but with 10000 locks collisions
    // are rare: almost always exactly 8.
    EXPECT_LE(workload.Next(rng).locks.size(), 8u);
    EXPECT_GE(workload.Next(rng).locks.size(), 7u);
  }
}

TEST(MicroWorkloadTest, ZipfSkewsTraffic) {
  MicroConfig config;
  config.num_locks = 1000;
  config.zipf_alpha = 1.2;
  MicroWorkload workload(config);
  Rng rng(4);
  std::map<LockId, int> counts;
  for (int i = 0; i < 20000; ++i) {
    ++counts[workload.Next(rng).locks[0].lock];
  }
  int head = 0;
  for (LockId l = 0; l < 10; ++l) head += counts[l];
  EXPECT_GT(head, 20000 / 3);
}

class TpccTest : public ::testing::Test {
 protected:
  TpccConfig MakeConfig(std::uint32_t warehouses, std::uint32_t home) {
    TpccConfig config;
    config.warehouses = warehouses;
    config.home_warehouse = home;
    return config;
  }
};

TEST_F(TpccTest, LockIdRangesDisjoint) {
  TpccWorkload workload(MakeConfig(10, 0));
  std::set<LockId> ids;
  ids.insert(workload.WarehouseLock(9));
  ids.insert(workload.DistrictLock(9, 9));
  ids.insert(workload.CustomerLock(9, 9, 2999));
  ids.insert(workload.ItemLock(99999));
  ids.insert(workload.StockLock(9, 99999));
  EXPECT_EQ(ids.size(), 5u);
  // Ranges are ordered coldest -> hottest and within the lock space (hot
  // tables sort last so transactions lock them last).
  EXPECT_LT(workload.StockLock(9, 99999), workload.ItemLock(0));
  EXPECT_LT(workload.ItemLock(99999), workload.CustomerLock(0, 0, 0));
  EXPECT_LT(workload.CustomerLock(9, 9, 2999), workload.DistrictLock(0, 0));
  EXPECT_LT(workload.DistrictLock(9, 9), workload.WarehouseLock(0));
  EXPECT_LT(workload.WarehouseLock(9), workload.lock_space());
}

TEST_F(TpccTest, MixMatchesSpec) {
  Rng rng(5);
  std::map<TpccTxnType, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[TpccWorkload::SampleType(rng)];
  EXPECT_NEAR(counts[TpccTxnType::kNewOrder], n * 0.45, n * 0.01);
  EXPECT_NEAR(counts[TpccTxnType::kPayment], n * 0.43, n * 0.01);
  EXPECT_NEAR(counts[TpccTxnType::kOrderStatus], n * 0.04, n * 0.005);
  EXPECT_NEAR(counts[TpccTxnType::kDelivery], n * 0.04, n * 0.005);
  EXPECT_NEAR(counts[TpccTxnType::kStockLevel], n * 0.04, n * 0.005);
}

TEST_F(TpccTest, TxnsAreNormalized) {
  TpccWorkload workload(MakeConfig(4, 1));
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const TxnSpec txn = workload.Next(rng);
    ASSERT_FALSE(txn.locks.empty());
    for (std::size_t k = 1; k < txn.locks.size(); ++k) {
      EXPECT_LT(txn.locks[k - 1].lock, txn.locks[k].lock);
    }
    for (const LockRequest& req : txn.locks) {
      EXPECT_LT(req.lock, workload.lock_space());
    }
  }
}

TEST_F(TpccTest, WarehouseRowIsHotUnderPayment) {
  // Payment takes the home warehouse row exclusive; with the standard mix
  // the warehouse lock shows up in a large fraction of transactions.
  TpccWorkload workload(MakeConfig(1, 0));
  Rng rng(7);
  int touches_warehouse_exclusive = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    for (const LockRequest& req : workload.Next(rng).locks) {
      if (req.lock == workload.WarehouseLock(0) &&
          req.mode == LockMode::kExclusive) {
        ++touches_warehouse_exclusive;
      }
    }
  }
  EXPECT_NEAR(touches_warehouse_exclusive, n * 0.43, n * 0.02);
}

TEST_F(TpccTest, SingleWarehouseNeverRemote) {
  TpccWorkload workload(MakeConfig(1, 0));
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    for (const LockRequest& req : workload.Next(rng).locks) {
      // All stock locks must belong to warehouse 0.
      EXPECT_LT(req.lock, workload.lock_space());
    }
  }
}

TEST_F(TpccTest, RemotePaymentTouchesOtherWarehouses) {
  TpccWorkload workload(MakeConfig(10, 3));
  Rng rng(9);
  bool saw_remote_customer = false;
  const LockId home_customer_base = workload.CustomerLock(3, 0, 0);
  const LockId home_customer_end = workload.CustomerLock(3, 9, 2999);
  for (int i = 0; i < 20000 && !saw_remote_customer; ++i) {
    const TxnSpec txn = workload.Next(rng);
    for (const LockRequest& req : txn.locks) {
      if (req.lock >= workload.CustomerLock(0, 0, 0) &&
          req.lock < workload.DistrictLock(0, 0) &&
          (req.lock < home_customer_base || req.lock > home_customer_end)) {
        saw_remote_customer = true;
      }
    }
  }
  EXPECT_TRUE(saw_remote_customer);
}

TEST_F(TpccTest, NewOrderShape) {
  // NewOrder has 5-15 order lines: lock count 3 + 2*ol_cnt (minus rare
  // dedup collisions).
  TpccWorkload workload(MakeConfig(10, 0));
  Rng rng(10);
  for (int i = 0; i < 5000; ++i) {
    const TxnSpec txn = workload.Next(rng);
    EXPECT_GE(txn.locks.size(), 2u);
    EXPECT_LE(txn.locks.size(), 3u + 2u * 15u);
  }
}

TEST_F(TpccTest, CoarseningShrinksLockSpace) {
  TpccConfig fine = MakeConfig(4, 0);
  TpccConfig coarse = MakeConfig(4, 0);
  coarse.item_granularity = 8;
  coarse.stock_granularity = 64;
  coarse.customer_granularity = 16;
  TpccWorkload wf(fine), wc(coarse);
  EXPECT_LT(wc.lock_space(), wf.lock_space());
  // Adjacent rows map to one coarse lock; distant rows to different ones.
  EXPECT_EQ(wc.ItemLock(0), wc.ItemLock(7));
  EXPECT_NE(wc.ItemLock(0), wc.ItemLock(8));
  EXPECT_EQ(wc.StockLock(0, 0), wc.StockLock(0, 63));
  EXPECT_NE(wc.StockLock(0, 0), wc.StockLock(0, 64));
  EXPECT_EQ(wc.CustomerLock(0, 0, 0), wc.CustomerLock(0, 0, 15));
}

TEST_F(TpccTest, CoarsenedIdsStayInBounds) {
  TpccConfig config = MakeConfig(3, 1);
  config.item_granularity = 7;   // Non-power-of-two.
  config.stock_granularity = 33;
  config.customer_granularity = 100;
  TpccWorkload workload(config);
  EXPECT_LT(workload.StockLock(2, TpccWorkload::kItems - 1),
            workload.ItemLock(0));
  EXPECT_LT(workload.ItemLock(TpccWorkload::kItems - 1),
            workload.CustomerLock(0, 0, 0));
  EXPECT_LT(workload.CustomerLock(2, 9, 2999),
            workload.DistrictLock(0, 0));
  EXPECT_LT(workload.WarehouseLock(2), workload.lock_space());
  Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    for (const LockRequest& req : workload.Next(rng).locks) {
      EXPECT_LT(req.lock, workload.lock_space());
    }
  }
}

TEST_F(TpccTest, UnlockedCatalogAndStock) {
  TpccConfig config = MakeConfig(2, 0);
  config.lock_items = false;
  config.lock_stock = false;
  TpccWorkload workload(config);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    for (const LockRequest& req : workload.Next(rng).locks) {
      // Only warehouse / district / customer rows are ever locked (all of
      // which sit above the item range in the hot-last layout).
      EXPECT_GE(req.lock, workload.CustomerLock(0, 0, 0));
    }
  }
}

TEST_F(TpccTest, DeterministicPerSeed) {
  TpccWorkload w1(MakeConfig(5, 2));
  TpccWorkload w2(MakeConfig(5, 2));
  Rng r1(11), r2(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(w1.Next(r1).locks, w2.Next(r2).locks);
  }
}


TEST(YcsbWorkloadTest, ModeMixMatchesWriteFraction) {
  YcsbConfig config;
  config.num_keys = 10'000;
  config.write_fraction = 0.5;  // Workload A.
  YcsbWorkload workload(config);
  Rng rng(21);
  int writes = 0, total = 0;
  for (int i = 0; i < 20000; ++i) {
    for (const LockRequest& req : workload.Next(rng).locks) {
      ++total;
      writes += req.mode == LockMode::kExclusive;
    }
  }
  EXPECT_NEAR(static_cast<double>(writes) / total, 0.5, 0.02);
}

TEST(YcsbWorkloadTest, ZipfConcentratesOnHotKeys) {
  YcsbConfig config;
  config.num_keys = 100'000;
  config.zipf_alpha = 0.99;
  YcsbWorkload workload(config);
  Rng rng(22);
  int hot = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (workload.Next(rng).locks[0].lock < 100) ++hot;
  }
  // YCSB 0.99 skew: top-100 of 100K get a large share.
  EXPECT_GT(hot, n / 5);
}

TEST(YcsbWorkloadTest, KeyRangeAndMultiKeyTxns) {
  YcsbConfig config;
  config.num_keys = 64;
  config.first_key = 1000;
  config.keys_per_txn = 4;
  YcsbWorkload workload(config);
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const TxnSpec txn = workload.Next(rng);
    EXPECT_LE(txn.locks.size(), 4u);
    for (const LockRequest& req : txn.locks) {
      EXPECT_GE(req.lock, 1000u);
      EXPECT_LT(req.lock, 1064u);
    }
  }
  EXPECT_EQ(workload.lock_space(), 1064u);
}

TEST(ScenarioWorkloadTest, HotWindowDriftsEvery200Txns) {
  // Every pick is hot: the first 200 transactions draw from the window at
  // [0, 16), the next 200 from the window one drift step on, [16, 32).
  ScenarioConfig config;
  config.hot_fraction = 1.0;
  ScenarioWorkload workload(config);
  Rng rng(29);
  for (int txn = 0; txn < 400; ++txn) {
    const LockId base = txn < 200 ? 0 : 16;
    for (const LockRequest& req : workload.Next(rng).locks) {
      EXPECT_GE(req.lock, base) << "txn " << txn;
      EXPECT_LT(req.lock, base + 16) << "txn " << txn;
    }
  }
}

// NextInto into one reused spec draws exactly what fresh Next calls draw:
// two generators built alike, two Rngs seeded alike, 1 000 transactions,
// every lock set equal — whatever the reused spec held before — and the
// Rngs end in the same state (same number of draws).
template <typename Make>
void ExpectNextIntoMatchesNext(Make make) {
  const std::unique_ptr<WorkloadGenerator> fresh = make();
  const std::unique_ptr<WorkloadGenerator> reused = make();
  Rng fresh_rng(4242);
  Rng reused_rng(4242);
  TxnSpec spec;
  spec.locks = {{999'999, LockMode::kShared},
                {3, LockMode::kExclusive},
                {77'777, LockMode::kShared},
                {1, LockMode::kExclusive},
                {123'456, LockMode::kExclusive}};
  for (int i = 0; i < 1000; ++i) {
    const TxnSpec want = fresh->Next(fresh_rng);
    reused->NextInto(reused_rng, spec);
    ASSERT_EQ(spec.locks, want.locks) << "txn " << i;
  }
  EXPECT_EQ(fresh_rng(), reused_rng());
}

TEST(NextIntoTest, MicroMatchesNext) {
  MicroConfig config;
  config.num_locks = 500;
  config.locks_per_txn = 4;
  config.shared_fraction = 0.3;
  config.zipf_alpha = 0.9;
  ExpectNextIntoMatchesNext(
      [&] { return std::make_unique<MicroWorkload>(config); });
}

TEST(NextIntoTest, UnorderedMicroMatchesNext) {
  MicroConfig config;
  config.num_locks = 64;
  config.locks_per_txn = 5;
  config.shared_fraction = 0.2;
  ExpectNextIntoMatchesNext(
      [&] { return std::make_unique<UnorderedMicroWorkload>(config); });
}

TEST(NextIntoTest, TpccMatchesNext) {
  TpccConfig config;
  config.warehouses = 4;
  config.home_warehouse = 2;
  ExpectNextIntoMatchesNext(
      [&] { return std::make_unique<TpccWorkload>(config); });
}

TEST(NextIntoTest, YcsbMatchesNext) {
  YcsbConfig config;
  config.num_keys = 10'000;
  config.keys_per_txn = 3;
  config.write_fraction = 0.5;
  ExpectNextIntoMatchesNext(
      [&] { return std::make_unique<YcsbWorkload>(config); });
}

TEST(NextIntoTest, ScenarioMatchesNext) {
  ScenarioConfig config;
  config.num_locks = 1000;
  config.shared_fraction = 0.25;
  ExpectNextIntoMatchesNext(
      [&] { return std::make_unique<ScenarioWorkload>(config); });
}

TEST(NextIntoTest, TraceMatchesNext) {
  MicroConfig source_config;
  source_config.num_locks = 200;
  source_config.locks_per_txn = 3;
  source_config.shared_fraction = 0.5;
  MicroWorkload source(source_config);
  Rng source_rng(5);
  // 97 transactions: the 1 000 draws wrap the trace several times.
  const std::vector<TxnSpec> txns =
      TraceWorkload::Record(source, source_rng, 97);
  ExpectNextIntoMatchesNext(
      [&] { return std::make_unique<TraceWorkload>(txns, 11); });
}

}  // namespace
}  // namespace netlock
