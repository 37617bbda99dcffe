#include "dataplane/lock_table.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

RegionAllocator::RegionAllocator(std::uint32_t capacity)
    : capacity_(capacity), free_slots_(capacity) {
  if (capacity > 0) free_.emplace(0, capacity);
}

std::optional<Extent> RegionAllocator::Allocate(std::uint32_t slots) {
  if (slots == 0 || slots > free_slots_) return std::nullopt;
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const std::uint32_t left = it->first;
    const std::uint32_t right = it->second;
    if (right - left >= slots) {
      Extent extent{left, left + slots};
      // Shrink the extent from the left by re-keying its map node, so a
      // partial allocation allocates nothing.
      const auto next = std::next(it);
      auto node = free_.extract(it);
      if (extent.right < right) {
        node.key() = extent.right;
        free_.insert(next, std::move(node));
      }
      free_slots_ -= slots;
      return extent;
    }
  }
  return std::nullopt;  // Fragmented.
}

void RegionAllocator::Free(Extent extent) {
  NETLOCK_CHECK(extent.right <= capacity_ && extent.left < extent.right);
  auto [it, inserted] = free_.emplace(extent.left, extent.right);
  NETLOCK_CHECK(inserted);
  free_slots_ += extent.size();
  // Coalesce with successor.
  auto next = std::next(it);
  if (next != free_.end() && it->second == next->first) {
    it->second = next->second;
    free_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != free_.begin()) {
    auto prev = std::prev(it);
    if (prev->second == it->first) {
      prev->second = it->second;
      free_.erase(it);
    }
  }
}

std::uint32_t RegionAllocator::LargestFreeExtent() const {
  std::uint32_t best = 0;
  for (const auto& [left, right] : free_) best = std::max(best, right - left);
  return best;
}

SwitchLockTable::SwitchLockTable(std::uint32_t max_locks,
                                 std::uint32_t queue_capacity)
    : max_locks_(max_locks), allocator_(queue_capacity) {
  entries_.reserve(max_locks);
}

const SwitchLockEntry* SwitchLockTable::Install(
    LockId lock, NodeId home_server, const PerPriority<std::uint32_t>& slots) {
  NETLOCK_CHECK(!slots.empty());
  NETLOCK_CHECK(index_.Find(lock) == FlatLockMap<std::uint32_t>::kNotFound);
  if (free_meta_indices_.empty() && entries_.size() == max_locks_) {
    return nullptr;
  }

  SwitchLockEntry entry;
  entry.lock_id = lock;
  entry.home_server = home_server;
  for (const std::uint32_t n : slots) {
    const std::optional<Extent> extent = allocator_.Allocate(n);
    if (!extent) {
      for (const LockBounds& r : entry.regions) {
        allocator_.Free(Extent{r.left, r.right});
      }
      return nullptr;
    }
    entry.regions.push_back(LockBounds{extent->left, extent->right});
  }
  // The most recently freed index first, else the next fresh one.
  if (free_meta_indices_.empty()) {
    entry.meta_index = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(entry);
  } else {
    entry.meta_index = free_meta_indices_.back();
    free_meta_indices_.pop_back();
    entries_[entry.meta_index] = entry;
  }
  index_.InsertOrAssign(lock, entry.meta_index);
  home_server_.InsertOrAssign(lock, home_server);
  return &entries_[entry.meta_index];
}

void SwitchLockTable::Remove(LockId lock) {
  const std::uint32_t meta = index_.Erase(lock);
  NETLOCK_CHECK(meta != FlatLockMap<std::uint32_t>::kNotFound);
  SwitchLockEntry& entry = entries_[meta];
  for (const LockBounds& region : entry.regions) {
    allocator_.Free(Extent{region.left, region.right});
  }
  entry.lock_id = kInvalidLock;
  free_meta_indices_.push_back(meta);
}

const SwitchLockEntry* SwitchLockTable::Find(LockId lock) const {
  const std::uint32_t meta = index_.Find(lock);
  return meta == FlatLockMap<std::uint32_t>::kNotFound ? nullptr
                                                       : &entries_[meta];
}

NodeId SwitchLockTable::HomeServer(LockId lock) const {
  const NodeId server = home_server_.Find(lock);
  return server == FlatLockMap<NodeId>::kNotFound ? kInvalidNode : server;
}

void SwitchLockTable::SetHomeServer(LockId lock, NodeId server) {
  home_server_.InsertOrAssign(lock, server);
}

void SwitchLockTable::ReassignHomeServer(LockId lock, NodeId server) {
  const std::uint32_t meta = index_.Find(lock);
  NETLOCK_CHECK(meta != FlatLockMap<std::uint32_t>::kNotFound);
  entries_[meta].home_server = server;
  home_server_.InsertOrAssign(lock, server);
}

std::vector<LockId> SwitchLockTable::InstalledLocks() const {
  std::vector<LockId> locks;
  locks.reserve(index_.size());
  for (const SwitchLockEntry& entry : entries_) {
    if (entry.lock_id != kInvalidLock) locks.push_back(entry.lock_id);
  }
  std::sort(locks.begin(), locks.end());
  return locks;
}

void SwitchLockTable::Clear() {
  index_.Clear();
  entries_.clear();
  free_meta_indices_.clear();
  allocator_ = RegionAllocator(allocator_.capacity());
  // Home-server routing state survives a data-plane restart: it mirrors the
  // directory service, which is external to the switch.
}

}  // namespace netlock
