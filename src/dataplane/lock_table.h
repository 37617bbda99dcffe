// Switch-side lock directory and shared-queue region allocator.
//
// The control plane (paper Section 4.3) decides which locks live in the
// switch and how many slots each gets; this module owns the mechanics:
// match-action mapping from lock ID to a per-lock metadata index, and
// allocation of contiguous [left, right) regions in the shared queue with
// free-list coalescing plus explicit defragmentation (the paper's "memory
// layout ... periodically reorganized to alleviate memory fragmentation").
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_lock_map.h"
#include "common/types.h"
#include "dataplane/slot.h"

namespace netlock {

/// A contiguous free or allocated extent of the shared queue.
struct Extent {
  std::uint32_t left = 0;
  std::uint32_t right = 0;  ///< Exclusive.
  std::uint32_t size() const { return right - left; }
};

/// First-fit extent allocator with coalescing, over [0, capacity).
class RegionAllocator {
 public:
  explicit RegionAllocator(std::uint32_t capacity);

  /// Allocates a contiguous extent of `slots`; nullopt when fragmented or
  /// full. O(#free extents).
  std::optional<Extent> Allocate(std::uint32_t slots);

  /// Returns an extent obtained from Allocate().
  void Free(Extent extent);

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t free_slots() const { return free_slots_; }

  /// Largest single allocatable extent (shows fragmentation).
  std::uint32_t LargestFreeExtent() const;
  std::size_t NumFreeExtents() const { return free_.size(); }

 private:
  std::uint32_t capacity_;
  std::uint32_t free_slots_;
  std::map<std::uint32_t, std::uint32_t> free_;  ///< left -> right.
};

/// One value per priority class, at most kMaxPriorities, stored inline so
/// installing a lock allocates nothing.
template <typename T>
class PerPriority {
 public:
  PerPriority() = default;
  PerPriority(std::initializer_list<T> values) {
    for (const T& v : values) push_back(v);
  }

  void push_back(const T& v) {
    NETLOCK_CHECK(size_ < static_cast<std::uint32_t>(kMaxPriorities));
    items_[size_++] = v;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }

 private:
  T items_[kMaxPriorities] = {};
  std::uint32_t size_ = 0;
};

/// Per-lock entry installed in the switch.
struct SwitchLockEntry {
  LockId lock_id = kInvalidLock;
  std::uint32_t meta_index = 0;      ///< Index into the meta register arrays.
  NodeId home_server = kInvalidNode; ///< Server holding this lock's q2.
  /// Region per priority class (one element with a single class).
  PerPriority<LockBounds> regions;
  /// Being moved off the switch (§4.3): new requests are forwarded to the
  /// home server buffer-only until the queue drains. A (re)install starts
  /// unpaused.
  bool paused = false;
};

/// Directory of switch-resident locks plus the home-server map for locks the
/// switch is *not* responsible for (it forwards those, Algorithm 1 line 12).
class SwitchLockTable {
 public:
  /// `max_locks` bounds the number of simultaneously installed locks (the
  /// size of the per-lock metadata register arrays).
  SwitchLockTable(std::uint32_t max_locks, std::uint32_t queue_capacity);

  /// Installs a lock with one region of `slots` per priority class.
  /// Returns nullptr when the meta table or the shared queue is exhausted.
  /// The entry stays at the returned address until the lock is removed.
  const SwitchLockEntry* Install(LockId lock, NodeId home_server,
                                 const PerPriority<std::uint32_t>& slots);

  /// Removes an installed lock, freeing its regions. The caller must have
  /// drained its queues first.
  void Remove(LockId lock);

  const SwitchLockEntry* Find(LockId lock) const;
  SwitchLockEntry* Find(LockId lock) {
    return const_cast<SwitchLockEntry*>(std::as_const(*this).Find(lock));
  }

  /// Home server for any lock (installed or not); kInvalidNode if unmapped.
  NodeId HomeServer(LockId lock) const;
  void SetHomeServer(LockId lock, NodeId server);
  void ClearHomeServer(LockId lock) { home_server_.Erase(lock); }

  /// Rewrites an installed lock's home server (server failover).
  void ReassignHomeServer(LockId lock, NodeId server);

  std::size_t num_installed() const { return index_.size(); }
  std::uint32_t free_slots() const { return allocator_.free_slots(); }
  std::uint32_t LargestFreeExtent() const {
    return allocator_.LargestFreeExtent();
  }
  std::uint32_t max_locks() const { return max_locks_; }

  /// All installed locks (control-plane iteration for reallocation).
  std::vector<LockId> InstalledLocks() const;

  /// Clears everything (switch restart).
  void Clear();

 private:
  std::uint32_t max_locks_;
  RegionAllocator allocator_;
  FlatLockMap<std::uint32_t> index_;  ///< Installed lock -> meta_index.
  /// Entries by meta_index (free ones have lock_id == kInvalidLock).
  /// Reserved to max_locks so addresses stay put; only the indices handed
  /// out are ever touched, lowest first.
  std::vector<SwitchLockEntry> entries_;
  std::vector<std::uint32_t> free_meta_indices_;  ///< Below entries_.size().
  FlatLockMap<NodeId> home_server_;
};

}  // namespace netlock
