// Tests for FlatLockMap, the open-addressing lock-id table under LockEngine
// and the switch lock directory: randomized insert/erase/find/grow against
// std::unordered_map, and probe clusters that wrap around the end of the
// bucket array.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_lock_map.h"
#include "common/random.h"

namespace netlock {
namespace {

using Map = FlatLockMap<std::uint32_t>;

/// Every key of `model` maps to its value, and `absent` keys are missing.
void ExpectMatches(const Map& map,
                   const std::unordered_map<LockId, std::uint32_t>& model,
                   const std::vector<LockId>& absent) {
  ASSERT_EQ(map.size(), model.size());
  for (const auto& [lock, value] : model) {
    ASSERT_EQ(map.Find(lock), value) << "lock " << lock;
  }
  for (const LockId lock : absent) {
    if (model.count(lock) == 0) {
      ASSERT_EQ(map.Find(lock), Map::kNotFound);
    }
  }
}

/// `n` distinct lock ids whose home bucket is `bucket` in a table of
/// `buckets` buckets.
std::vector<LockId> KeysHomedAt(std::size_t bucket, std::size_t buckets,
                                int n) {
  std::vector<LockId> keys;
  for (LockId lock = 0; static_cast<int>(keys.size()) < n; ++lock) {
    if ((Map::Hash(lock) & (buckets - 1)) == bucket) keys.push_back(lock);
  }
  return keys;
}

TEST(FlatLockMapTest, EmptyMapFindsNothing) {
  Map map;
  EXPECT_EQ(map.Find(0), Map::kNotFound);
  EXPECT_EQ(map.Erase(0), Map::kNotFound);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.bucket_count(), 0u);
}

TEST(FlatLockMapTest, FindOrInsertCallsMakeOnlyOnInsert) {
  Map map;
  int made = 0;
  auto make = [&made] { return static_cast<std::uint32_t>(100 + made++); };
  EXPECT_EQ(map.FindOrInsert(7, make), 100u);
  EXPECT_EQ(map.FindOrInsert(7, make), 100u);
  EXPECT_EQ(map.FindOrInsert(8, make), 101u);
  EXPECT_EQ(made, 2);
  map.InsertOrAssign(7, 5);
  EXPECT_EQ(map.Find(7), 5u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.Erase(7), 5u);
  EXPECT_EQ(map.Find(7), Map::kNotFound);
  EXPECT_EQ(map.Find(8), 101u);
}

// Keys homed at the last bucket probe past the end into bucket 0 and on.
// Erasing from the middle of the wrapped cluster leaves tombstones that
// must neither hide the keys behind them nor be skipped by re-inserts.
TEST(FlatLockMapTest, ClusterWrapsAroundTheBucketArray) {
  Map map;  // The first insert sizes it to 16 buckets.
  const std::vector<LockId> keys = KeysHomedAt(15, 16, 6);
  std::unordered_map<LockId, std::uint32_t> model;
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    map.InsertOrAssign(keys[i], i);
    model[keys[i]] = i;
  }
  ASSERT_EQ(map.bucket_count(), 16u);  // No growth undid the wrap.
  ExpectMatches(map, model, keys);
  // Erase the key in bucket 15 and one that wrapped to bucket 1.
  EXPECT_EQ(map.Erase(keys[0]), 0u);
  EXPECT_EQ(map.Erase(keys[2]), 2u);
  model.erase(keys[0]);
  model.erase(keys[2]);
  ExpectMatches(map, model, keys);
  // Re-inserting fills the first tombstone of the probe run, once.
  map.InsertOrAssign(keys[2], 20);
  model[keys[2]] = 20;
  ExpectMatches(map, model, keys);
  map.InsertOrAssign(keys[0], 30);
  model[keys[0]] = 30;
  ExpectMatches(map, model, keys);
  EXPECT_EQ(map.bucket_count(), 16u);
}

// Random operations over a small key space (dense collisions, tombstone
// churn) and a wide one (growth), checked against std::unordered_map after
// every step.
TEST(FlatLockMapTest, RandomizedAgainstUnorderedMap) {
  for (const std::uint32_t key_space : {40u, 5'000u}) {
    Rng rng(key_space);
    Map map;
    std::unordered_map<LockId, std::uint32_t> model;
    std::vector<LockId> probes;
    std::size_t max_buckets = 0;
    for (int step = 0; step < 20'000; ++step) {
      const LockId lock = static_cast<LockId>(rng.NextBounded(key_space));
      const std::uint32_t value =
          static_cast<std::uint32_t>(rng.NextBounded(1u << 30));
      switch (rng.NextBounded(4)) {
        case 0: {
          const bool had = model.count(lock) != 0;
          const std::uint32_t got =
              map.FindOrInsert(lock, [value] { return value; });
          if (!had) model[lock] = value;
          ASSERT_EQ(got, model[lock]);
          break;
        }
        case 1:
          map.InsertOrAssign(lock, value);
          model[lock] = value;
          break;
        case 2: {
          const auto it = model.find(lock);
          const std::uint32_t want =
              it == model.end() ? Map::kNotFound : it->second;
          ASSERT_EQ(map.Erase(lock), want);
          if (it != model.end()) model.erase(it);
          break;
        }
        default:
          ASSERT_EQ(map.Find(lock),
                    model.count(lock) ? model[lock] : Map::kNotFound);
      }
      max_buckets = std::max(max_buckets, map.bucket_count());
      // Load stays at most 1/2, so probe runs terminate.
      ASSERT_LE(map.size() * 2, map.bucket_count());
      if (step % 997 == 0) {
        probes.assign({lock, lock + 1, key_space + 3});
        ExpectMatches(map, model, probes);
      }
    }
    ExpectMatches(map, model, probes);
    if (key_space > 1000) {
      EXPECT_GE(max_buckets, 4096u);  // It grew.
    }
    map.Clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.Find(static_cast<LockId>(key_space / 2)), Map::kNotFound);
  }
}

}  // namespace
}  // namespace netlock
