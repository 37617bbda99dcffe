// Event queue for the discrete-event simulator.
//
// Events at the same timestamp must fire in the order they were scheduled
// (stable FIFO tie-breaking); otherwise packet ordering — and therefore lock
// grant ordering, which the FCFS policy depends on — would be
// nondeterministic. A sequence number provides the total order.
//
// Events cannot be cancelled. A component with many deadlines of which few
// ever fire live (a client session's retransmit timers) reserves each
// deadline's sequence number when it sets the deadline (ReserveSeq) and
// keeps a single event armed at the earliest one; when that event fires it
// pushes the next live deadline under its reserved number (PushReserved).
// Surviving deadlines fire at exactly the (when, seq) they would have had
// as events of their own, and the heap holds one event per component
// instead of one per deadline.
//
// The hot path is allocation-free: events are stored as InlineEvent — a
// move-only, small-buffer callable whose inline capacity (kInlineCapacity
// bytes) fits a full packet-delivery closure (an 80-byte Packet plus the
// Network pointer) — in a free-list slot arena inside the queue. In steady
// state, pushing and popping a packet-delivery event touches no allocator
// at all; callables too large for the buffer fall back to the heap, which
// tests detect through InlineEvent::uses_heap().
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace netlock {

/// A move-only callable with a large inline buffer, sized so the
/// simulator's hot event — delivering a Packet — never heap-allocates.
/// Replaces std::function<void()>, whose ~16-byte small-buffer optimization
/// forced one allocation per simulated packet hop.
class InlineEvent {
 public:
  /// Inline storage in bytes. Must hold Network's packet-delivery closure
  /// (80-byte Packet + pointer); 104 leaves headroom for other captures
  /// (epochs, ids) without growing the slot past two cache lines.
  static constexpr std::size_t kInlineCapacity = 104;

  InlineEvent() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineEvent>>>
  InlineEvent(F&& fn) {  // NOLINT: implicit, mirrors std::function.
    Emplace(std::forward<F>(fn));
  }

  InlineEvent(InlineEvent&& other) noexcept { MoveFrom(other); }
  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }
  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;
  ~InlineEvent() { Destroy(); }

  /// Clears to the empty state (safe to reassign afterwards).
  void Reset() { Destroy(); }

  /// Replaces the held callable, constructing the new one directly in the
  /// inline buffer (no intermediate InlineEvent, no relocation). This is
  /// how the queue's Push gets a packet from the wire into its slot with a
  /// single copy.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineEvent>>>
  void Assign(F&& fn) {
    Destroy();
    Emplace(std::forward<F>(fn));
  }
  void Assign(InlineEvent&& other) { *this = std::move(other); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when this event's callable lives on the heap (too big or not
  /// nothrow-movable). The simulator's own events must never trip this.
  bool uses_heap() const { return ops_ != nullptr && ops_->heap; }

  /// Invokes the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool heap;
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* p) {
      std::launder(reinterpret_cast<Fn*>(p))->~Fn();
    }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, /*heap=*/false};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn*& Slot(void* p) { return *reinterpret_cast<Fn**>(p); }
    static void Invoke(void* p) { (*Slot(p))(); }
    static void Relocate(void* dst, void* src) {
      *reinterpret_cast<Fn**>(dst) = Slot(src);
    }
    static void Destroy(void* p) { delete Slot(p); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, /*heap=*/true};
  };

  template <typename F>
  void Emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "event callable must be ()-able");
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(fn));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  void MoveFrom(InlineEvent& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// An event: a callback scheduled to fire at a simulated time. Kept as an
/// alias so the many Schedule(delay, lambda) call sites read unchanged.
using EventFn = InlineEvent;

class EventQueue {
 public:
  /// Schedules fn to run at absolute time `when`, constructing the callable
  /// directly in its arena slot (one move/copy from the caller's argument;
  /// no intermediate InlineEvent hops). Returns the event's sequence number.
  template <typename F>
  std::uint64_t Push(SimTime when, F&& fn) {
    const std::uint64_t seq = ReserveSeq();
    PushReserved(when, seq, std::forward<F>(fn));
    return seq;
  }

  /// Takes the next sequence number without scheduling anything (see the
  /// file comment). A reservation that is never pushed costs nothing.
  std::uint64_t ReserveSeq() { return next_seq_++; }

  /// Schedules fn at (`when`, `seq`), where `seq` came from ReserveSeq and
  /// has not been pushed yet. It fires in exactly the position an event
  /// pushed at reservation time would have.
  template <typename F>
  void PushReserved(SimTime when, std::uint64_t seq, F&& fn) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot].Assign(std::forward<F>(fn));
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<F>(fn));
    }
    heap_.push(Entry{when, seq, slot});
    if (heap_.size() > max_depth_) max_depth_ = heap_.size();
  }

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  /// Exact maximum depth ever reached. Tracked here (one compare on data
  /// already in cache) so the simulator can report the pending-event
  /// high-water mark exactly while only sampling the gauge.
  std::size_t max_depth() const { return max_depth_; }

  /// Time of the earliest pending event. Precondition: !Empty().
  SimTime NextTime() const;

  /// The earliest event's metadata; its callable stays in the arena until
  /// InvokeAndRecycle runs it. Precondition: !Empty().
  struct Popped {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Removes the earliest entry from the heap, leaving the callable parked
  /// in its slot. Split from InvokeAndRecycle so the simulator can advance
  /// its clock (and count the event) before user code runs.
  Popped PopEntry();

  /// Runs the callable for a slot returned by PopEntry, in place, then
  /// destroys it and recycles the slot. Slots live in a deque precisely so
  /// the callable's storage stays put even when it re-enters Push and the
  /// arena grows mid-invoke; the slot is only recycled after the call
  /// returns, so re-entrant pushes can never overwrite a running event.
  void InvokeAndRecycle(std::uint32_t slot);

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;  // Index into slots_ storage.
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::deque<InlineEvent> slots_;  // Free-list arena; reused, never shrunk.
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace netlock
