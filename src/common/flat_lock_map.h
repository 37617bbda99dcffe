// Flat open-addressing map from LockId to a 32-bit value.
//
// The one lock-id hash table of the system: LockEngine maps locks to its
// pooled per-lock states through it, and the switch's lock directory maps
// locks to metadata indices and home servers. Buckets are {key, value}
// pairs in one power-of-two array probed linearly; erasure leaves a
// tombstone that later inserts reuse. The table rebuilds at load <= 1/4
// whenever live entries plus tombstones would pass 1/2, so probe runs stay
// short and a lookup usually touches one cache line. Nothing is allocated
// per entry: storage grows by doubling, on demand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace netlock {

/// `Value` is a 32-bit unsigned integer (an index or a node id); its top
/// two values mark empty and erased buckets, so they cannot be stored.
template <typename Value>
class FlatLockMap {
  static_assert(std::is_unsigned_v<Value> && sizeof(Value) == 4,
                "bucket occupancy is encoded in the value");

 public:
  /// What Find and Erase return for an absent lock.
  static constexpr Value kNotFound = 0xffffffffu;

  /// The value mapped to `lock`, or kNotFound.
  Value Find(LockId lock) const {
    const std::size_t i = BucketOf(lock);
    return i == kNoBucket ? kNotFound : buckets_[i].value;
  }

  /// The value mapped to `lock`; if absent, maps it to `make()` first
  /// (called only on insertion).
  template <typename Make>
  Value FindOrInsert(LockId lock, Make&& make) {
    return FindOrInsertBucket(lock, std::forward<Make>(make)).value;
  }

  /// Maps `lock` to `value`, replacing any previous value.
  void InsertOrAssign(LockId lock, Value value) {
    NETLOCK_CHECK(value < kTombstone);
    FindOrInsertBucket(lock, [value] { return value; }).value = value;
  }

  /// Removes `lock`, returning the value it had (kNotFound if absent).
  Value Erase(LockId lock) {
    const std::size_t i = BucketOf(lock);
    if (i == kNoBucket) return kNotFound;
    const Value value = buckets_[i].value;
    buckets_[i].value = kTombstone;
    --size_;
    ++tombstones_;
    return value;
  }

  void Clear() {
    buckets_.clear();
    size_ = 0;
    tombstones_ = 0;
  }

  std::size_t size() const { return size_; }
  /// Bucket array length (a power of two, or 0 before the first insert).
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Home bucket of `lock` is Hash(lock) & (bucket_count() - 1). A murmur
  /// finalizer, deliberately different from the RSS core hash so the
  /// per-core residue classes of the rt backend don't cluster the probes.
  static std::uint32_t Hash(LockId lock) {
    std::uint32_t h = lock;
    h ^= h >> 16;
    h *= 0x85ebca6bu;
    h ^= h >> 13;
    h *= 0xc2b2ae35u;
    h ^= h >> 16;
    return h;
  }

 private:
  static constexpr Value kEmpty = kNotFound;
  static constexpr Value kTombstone = 0xfffffffeu;

  struct Bucket {
    LockId key = 0;
    Value value = kEmpty;
  };

  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);

  /// Index of the bucket holding `lock`, or kNoBucket.
  std::size_t BucketOf(LockId lock) const {
    if (buckets_.empty()) return kNoBucket;
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = Hash(lock) & mask;
    for (;;) {
      const Bucket& b = buckets_[i];
      if (b.value == kEmpty) return kNoBucket;
      if (b.value != kTombstone && b.key == lock) return i;
      i = (i + 1) & mask;
    }
  }

  template <typename Make>
  Bucket& FindOrInsertBucket(LockId lock, Make&& make) {
    if (buckets_.empty() || (size_ + tombstones_ + 1) * 2 > buckets_.size()) {
      Rehash();
    }
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = Hash(lock) & mask;
    std::size_t first_tomb = kNoBucket;
    for (;;) {
      Bucket& b = buckets_[i];
      if (b.value == kEmpty) {
        Bucket& target = first_tomb != kNoBucket ? buckets_[first_tomb] : b;
        if (first_tomb != kNoBucket) --tombstones_;
        const Value value = make();
        NETLOCK_CHECK(value < kTombstone);
        target = Bucket{lock, value};
        ++size_;
        return target;
      }
      if (b.value == kTombstone) {
        if (first_tomb == kNoBucket) first_tomb = i;
      } else if (b.key == lock) {
        return b;
      }
      i = (i + 1) & mask;
    }
  }

  /// Rebuilds at load <= 1/4 (grows as needed, also purges tombstones).
  void Rehash() {
    std::size_t cap = 16;
    while (cap < (size_ + 1) * 4) cap <<= 1;
    std::vector<Bucket> fresh(cap);
    const std::size_t mask = cap - 1;
    for (const Bucket& b : buckets_) {
      if (b.value == kEmpty || b.value == kTombstone) continue;
      std::size_t i = Hash(b.key) & mask;
      while (fresh[i].value != kEmpty) i = (i + 1) & mask;
      fresh[i] = b;
    }
    buckets_ = std::move(fresh);
    tombstones_ = 0;
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace netlock
