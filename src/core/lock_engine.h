// Substrate-neutral lock wait-queue engine.
//
// The software lock-queue protocol — FIFO queue per lock, Algorithm 2's
// grant cascade on release, pause/grace buffering for migration and
// failover, lease-forced release, and the r_i/c_i demand counters — used to
// live inside LockServer, welded to the simulated Network. It is extracted
// here so the exact same compiled code runs on both execution substrates:
//
//   * the simulator: LockServer wraps a LockEngine, feeding it packets
//     after the simulated per-core service time and emitting grants as
//     simulated packets;
//   * the real-time backend: RtLockService shards one LockEngine per
//     worker core (RSS lock->core hashing keeps each lock single-threaded)
//     and emits grants into SPSC completion rings.
//
// The engine itself is single-threaded and knows nothing about time
// sources: callers pass `now` (simulated or wall-clock nanoseconds) into
// every operation, and grant decisions come out through a GrantSink.
//
// Storage is a pool of per-lock states indexed through a FlatLockMap
// (common/flat_lock_map.h). A state is one 64-byte record per owned lock:
// the demand counters, the paused flag and two queue headers. Queue
// entries live only in fixed-size chunks drawn from a LIFO free-list slab
// owned by the engine, and only while the queue is non-empty: the first
// entry takes a chunk, and the queue hands it back when it drains. Most
// owned locks are idle (the lock servers own the long tail of the
// knapsack), so they cost their record and nothing more, and steady-state
// acquire/release performs zero heap allocations at any depth once the
// slab is warm.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/flat_lock_map.h"
#include "common/types.h"
#include "dataplane/slot.h"

namespace netlock {

/// Why the engine refused or revoked an entry (deadlock policies only).
enum class AbortReason : std::uint8_t {
  kNoWait = 0,   ///< kNoWait: conflicting acquire refused, never queued.
  kWaitDie = 1,  ///< kWaitDie: requester younger than a conflicting entry.
  kWound = 2,    ///< kWoundWait: queued (possibly granted) entry revoked by
                 ///< an older conflicting requester.
};

inline const char* ToString(AbortReason r) {
  switch (r) {
    case AbortReason::kNoWait:
      return "no_wait";
    case AbortReason::kWaitDie:
      return "wait_die";
    case AbortReason::kWound:
      return "wound";
  }
  return "?";
}

/// Receives the engine's grant decisions. Implementations deliver the grant
/// to `slot.client_node` by whatever transport the substrate uses.
class GrantSink {
 public:
  virtual ~GrantSink() = default;

  /// `slot` became a holder of `lock`. slot.timestamp is the grant time.
  virtual void DeliverGrant(LockId lock, const QueueSlot& slot) = 0;

  /// A queued entry is about to be granted after waiting; called with the
  /// slot still carrying its enqueue timestamp (the sim wires wait-span
  /// tracing here). Entries granted immediately on acquire do not wait and
  /// do not produce this call.
  virtual void OnWaitEnd(LockId /*lock*/, const QueueSlot& /*slot*/,
                         SimTime /*now*/) {}

  /// A deadlock policy refused `slot` (kNoWait / kWaitDie: the entry was
  /// never queued) or revoked it (kWound: the entry was removed from the
  /// queue, possibly while granted). Fired BEFORE any cascade grants the
  /// removal enables, so an observer always learns of the abort no later
  /// than its consequences. Default no-op: policy-free substrates and
  /// existing sinks are unaffected.
  virtual void DeliverAbort(LockId /*lock*/, const QueueSlot& /*slot*/,
                            AbortReason /*reason*/) {}
};

/// What a release did. The caller maps outcomes onto its stats/metrics.
enum class ReleaseOutcome : std::uint8_t {
  kApplied = 0,     ///< Head popped; cascade grants (if any) delivered.
  kStale = 1,       ///< Unknown lock or empty queue; dropped.
  kMismatched = 2,  ///< Mode/txn does not match the head (already swept).
};

class LockEngine {
 public:
  explicit LockEngine(GrantSink& sink) : sink_(sink) {}

  LockEngine(const LockEngine&) = delete;
  LockEngine& operator=(const LockEngine&) = delete;

  /// Selects the deadlock-handling policy applied by Acquire. kNone (the
  /// default) preserves the classic queue-everything behaviour exactly.
  void set_deadlock_policy(DeadlockPolicy policy) { policy_ = policy; }
  DeadlockPolicy deadlock_policy() const { return policy_; }

  // --- Request path ---

  /// Appends an entry (stamping slot.timestamp = now) and grants it when
  /// the queue head rules allow: first entry, or a shared request joining
  /// an all-shared queue. Paused locks buffer instead.
  ///
  /// With a deadlock policy set, a conflicting request (different txn, at
  /// least one side exclusive) may instead be refused via DeliverAbort
  /// (kNoWait: any conflict; kWaitDie: a conflicting queued entry is
  /// older), or — under kWoundWait — first remove every *younger*
  /// conflicting queued entry (each revoked via DeliverAbort) before
  /// queuing normally. Because a retry uses a fresh (larger) txn id, every
  /// waits-for edge points from younger to older (wound-wait) or from
  /// older to younger (wait-die), so cycles cannot form.
  void Acquire(LockId lock, QueueSlot slot, SimTime now);

  /// What RemoveTxn removed.
  struct RemoveResult {
    std::uint32_t removed = 0;          ///< Entries removed (all queues).
    std::uint32_t removed_granted = 0;  ///< Of those, already granted.
  };

  /// Removes every entry of `txn` on `lock` — waiting, granted, or parked
  /// in the paused buffer — and re-grants whatever the removals promote to
  /// the front (clients served by a wire transport send this as kCancel
  /// when a wound/die aborts a txn with an acquire still in flight, so a
  /// doomed entry never stalls the queue for a full lease). `notify` aborts
  /// each removed entry through DeliverAbort(reason) before any re-grant.
  RemoveResult RemoveTxn(LockId lock, TxnId txn, SimTime now, bool notify,
                         AbortReason reason = AbortReason::kWound);

  /// Validated dequeue with the switch-equivalent grant cascade: a release
  /// whose mode — or, for an exclusive hold, transaction — does not match
  /// the head is from an entry the lease sweep already force-released, and
  /// popping blindly would dequeue another waiter's entry. `lease_forced`
  /// releases are internal (the sweep releasing the head) and exempt from
  /// validation.
  ///
  /// With a deadlock policy set, a shared release additionally removes the
  /// releaser's *own* entry from the granted shared run (kStale if absent,
  /// e.g. the release crossed a wound in flight) instead of blind-popping
  /// the front: the policies read queue txn labels for age checks and wound
  /// targets, so labels must track actual holders.
  ReleaseOutcome Release(LockId lock, LockMode mode, TxnId txn,
                         bool lease_forced, SimTime now);

  /// Forced-releases queue heads granted at or before now - lease
  /// (Section 4.5). Returns the number of entries force-released.
  std::uint64_t ClearExpired(SimTime lease, SimTime now);

  // --- Ownership / migration (server<->switch moves, failover) ---

  bool Owns(LockId lock) const { return Lookup(lock) != kNone; }
  bool QueueEmpty(LockId lock) const;
  std::size_t QueueDepth(LockId lock) const;
  /// Queued entries across all locks (0 once fully drained — leak check).
  std::size_t TotalQueueDepth() const;

  /// Creates the lock's entry if missing and sets its paused flag. Paused
  /// locks buffer acquires and never grant.
  void SetPaused(LockId lock, bool paused);
  bool IsPaused(LockId lock) const;

  /// Drains and returns the paused-side buffer (entries received while
  /// paused), leaving the paused flag untouched.
  std::deque<QueueSlot> TakePausedBuffer(LockId lock);

  /// Installs `queue` (possibly empty) as the lock's active queue and
  /// grants the new front per the usual rules, re-stamping granted entries
  /// to `now`. The lock must not already have an active queue. Used when a
  /// lock migrates in with its overflow (q2) backlog.
  void AdoptQueue(LockId lock, std::deque<QueueSlot> queue, SimTime now);

  /// Unconditionally discards a lock's state (eviction / failover).
  void Drop(LockId lock);

  /// Discards a lock known to be drained (asserts queue + buffer empty).
  void DropDrained(LockId lock);

  /// Discards everything (crash).
  void Clear();

  std::vector<LockId> OwnedLocks() const;
  std::size_t num_owned() const { return index_.size(); }

  /// Harvests per-lock demand counters (rates normalized by `window_sec`),
  /// appending to `out`, and resets them (§4.3).
  void HarvestDemands(double window_sec, std::vector<LockDemand>& out);

 private:
  static constexpr std::uint32_t kNone = FlatLockMap<std::uint32_t>::kNotFound;
  /// Entries per slab chunk (a power of two: positions split by shift).
  /// Two 32-byte slots fill one cache line. Every granted lock not yet
  /// released holds a chunk, so a burst of grants (a worker catching up
  /// on a backlog) costs 64 bytes per grant; deep queues chain chunks.
  static constexpr std::uint32_t kChunkSlots = 2;

  /// One slab chunk: a fixed run of slots, cache-line aligned so no slot
  /// straddles two lines. The next-chunk links live beside the chunks.
  struct alignas(64) Chunk {
    QueueSlot slots[kChunkSlots];
  };

  /// Free-list slab of chunks. A slot's position is chunk * kChunkSlots +
  /// offset; indices are stable (vectors only grow). Freed chunks are
  /// reused LIFO, so a warmed engine never allocates and the next queue to
  /// fill reuses the chunk still in cache.
  class SlabPool {
   public:
    std::uint32_t Alloc() {
      if (free_ == kNone) {
        chunks_.emplace_back();
        next_.push_back(kNone);
        return static_cast<std::uint32_t>(chunks_.size() - 1);
      }
      const std::uint32_t idx = free_;
      free_ = next_[idx];
      next_[idx] = kNone;
      return idx;
    }
    void Free(std::uint32_t idx) {
      next_[idx] = free_;
      free_ = idx;
    }
    QueueSlot& slot(std::uint32_t pos) {
      return chunks_[pos / kChunkSlots].slots[pos % kChunkSlots];
    }
    /// The chunk after `idx` in its queue, or kNone.
    std::uint32_t& next(std::uint32_t idx) { return next_[idx]; }
    /// The position after `pos` along its queue's chain. Past a queue's
    /// last entry the result is meaningless.
    std::uint32_t Advance(std::uint32_t pos) const {
      ++pos;
      return pos % kChunkSlots != 0 ? pos
                                    : next_[pos / kChunkSlots - 1] * kChunkSlots;
    }
    void Clear() {
      chunks_.clear();
      next_.clear();
      free_ = kNone;
    }

   private:
    std::vector<Chunk> chunks_;
    /// Chunk links: a queue's chain, or the free list for freed chunks.
    std::vector<std::uint32_t> next_;
    std::uint32_t free_ = kNone;  ///< Free-list head.
  };

  /// FIFO wait queue: a chain of slab chunks, held only while non-empty.
  /// The first PushBack takes a chunk; the queue returns its last chunk
  /// when it drains. An empty queue is a default-constructed one.
  struct WaitQueue {
    std::uint32_t count = 0;
    std::uint32_t head = 0;  ///< Position of the front entry.
    std::uint32_t tail = 0;  ///< Position one past the back entry.

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    QueueSlot& Front(SlabPool& pool) { return pool.slot(head); }

    void PushBack(const QueueSlot& slot, SlabPool& pool);
    void PopFront(SlabPool& pool);
    /// Frees any chunks and empties the queue.
    void Reset(SlabPool& pool);

    /// Forward cursor from the front; valid while the queue is unchanged.
    struct Cursor {
      std::uint32_t remaining = 0;
      std::uint32_t pos = 0;
    };
    Cursor Begin() const { return Cursor{count, head}; }
    bool Done(const Cursor& c) const { return c.remaining == 0; }
    QueueSlot& At(const Cursor& c, SlabPool& pool) { return pool.slot(c.pos); }
    void Advance(Cursor& c, const SlabPool& pool) const {
      --c.remaining;
      c.pos = pool.Advance(c.pos);
    }
  };

  /// Per-lock software queue with switch-equivalent semantics, one cache
  /// line per owned lock: most owned locks are idle, so the record holds
  /// only queue headers and the demand counters. Pool slots with
  /// key == kInvalidLock are free.
  struct alignas(64) LockState {
    std::uint64_t req_count = 0;  ///< r_i demand counter (§4.3).
    LockId key = kInvalidLock;
    std::uint32_t xcnt = 0;       ///< Exclusive entries among queue.
    std::uint32_t max_depth = 1;  ///< c_i demand counter.
    WaitQueue queue;              ///< Entries remain until released.
    WaitQueue paused_buffer;      ///< Entries received while paused.
    bool paused = false;
  };
  static_assert(sizeof(LockState) <= 64, "one cache line per owned lock");

  /// Index of the lock's state, or kNone.
  std::uint32_t Lookup(LockId lock) const { return index_.Find(lock); }
  LockState& FindOrCreate(LockId lock);
  /// Two queue entries conflict when they belong to different transactions
  /// and at least one side is exclusive (same-txn retransmit duplicates
  /// never self-abort).
  static bool Conflicts(const QueueSlot& a, const QueueSlot& b) {
    if (a.txn_id == b.txn_id) return false;
    return a.mode == LockMode::kExclusive || b.mode == LockMode::kExclusive;
  }
  /// Granted entries are always a queue prefix: the whole leading shared
  /// run, or just the head when it is exclusive. (Acquire only grants when
  /// appending keeps the prefix property; Release pops the front and
  /// re-grants the new prefix; removals re-grant through the same rule.)
  std::uint32_t GrantedCount(LockState& st);
  bool AnyConflict(LockState& st, const QueueSlot& slot);
  bool ConflictsWithOlder(LockState& st, const QueueSlot& slot);
  /// Removes entries of `txn` (or, with `wound_against` set, every entry
  /// conflicting with *wound_against that is younger than it) from `q`,
  /// preserving FIFO order of the survivors. Active-queue removals
  /// (`active` = true) maintain xcnt and re-grant the promoted prefix.
  RemoveResult RemoveMatching(LockId lock, LockState& st, WaitQueue& q,
                              bool active, TxnId txn,
                              const QueueSlot* wound_against, SimTime now,
                              bool notify, AbortReason reason);
  /// Removes the lock if present, returning its queues' chunks to the slab.
  void Erase(LockId lock);
  std::uint32_t AllocState();
  void FreeState(std::uint32_t idx);

  GrantSink& sink_;
  DeadlockPolicy policy_ = DeadlockPolicy::kNone;
  FlatLockMap<std::uint32_t> index_;  ///< Lock -> index into states_.
  std::vector<LockState> states_;
  std::vector<std::uint32_t> free_states_;
  SlabPool pool_;
};

}  // namespace netlock
