// Reference model: per lock, one unbounded FIFO queue per priority class
// (paper §4.4; one class is Algorithm 2's single queue). Entries stay until
// released; grant rules:
//   - a request is granted on arrival if the lock has no entries at all,
//     or if it is shared, the lock is held shared and no exclusive request
//     waits at its class or a higher one;
//   - when the last holder leaves, the head of the highest non-empty class
//     is granted and, if it is shared, so is every shared entry after it in
//     class order (within a class, then on into lower classes) up to the
//     first exclusive.
// Lower class values are higher priorities. Model-check and fuzz tests
// compare the switch data plane's grant stream against this.
//
// gtest-free so it can be linked into the fuzzer CLI; Release() reports
// protocol misuse by returning false instead of asserting.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/types.h"

namespace netlock::testing {

class ReferenceLockManager {
 public:
  struct Grant {
    LockId lock;
    TxnId txn;
    LockMode mode;
    friend bool operator==(const Grant&, const Grant&) = default;
  };

  /// A manager with `num_classes` priority classes; a request's class is
  /// its priority clamped to the last one.
  explicit ReferenceLockManager(int num_classes = 1)
      : num_classes_(num_classes < 1 ? 1 : num_classes) {}

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority = 0) {
    State& s = StateOf(lock);
    const int cls = ClassOf(priority);
    bool empty = true;
    bool held_exclusive = false;
    bool held = false;
    bool x_ahead = false;
    for (int c = 0; c < num_classes_; ++c) {
      for (const Entry& e : s.queues[c]) {
        empty = false;
        held |= e.granted;
        held_exclusive |= e.granted && e.mode == LockMode::kExclusive;
        x_ahead |= c <= cls && !e.granted && e.mode == LockMode::kExclusive;
      }
    }
    const bool grant =
        empty || (mode == LockMode::kShared && held && !held_exclusive &&
                  !x_ahead);
    s.queues[cls].push_back({mode, txn, grant});
    if (grant) grants_.push_back({lock, txn, mode});
  }

  /// Dequeues the head of `priority`'s class (dequeues are blind head
  /// pops, as on the switch) and grants whatever becomes runnable. Returns
  /// false if that head is not a holder of mode `mode` — a stale or
  /// out-of-protocol release.
  [[nodiscard]] bool Release(LockId lock, LockMode mode,
                             Priority priority = 0) {
    State& s = StateOf(lock);
    std::deque<Entry>& queue = s.queues[ClassOf(priority)];
    if (queue.empty() || !queue.front().granted ||
        queue.front().mode != mode) {
      return false;
    }
    queue.pop_front();
    for (const std::deque<Entry>& q : s.queues) {
      for (const Entry& e : q) {
        if (e.granted) return true;  // Other holders remain (S -> S).
      }
    }
    bool first = true;
    for (std::deque<Entry>& q : s.queues) {
      for (Entry& e : q) {
        if (!first && e.mode == LockMode::kExclusive) return true;
        e.granted = true;
        grants_.push_back({lock, e.txn, e.mode});
        if (e.mode == LockMode::kExclusive) return true;
        first = false;
      }
    }
    return true;
  }

  const std::vector<Grant>& grants() const { return grants_; }

  /// Currently granted (lock, txn) pairs, per the model.
  std::vector<Grant> GrantedNow() const {
    std::vector<Grant> held;
    for (const auto& [lock, s] : locks_) {
      for (const std::deque<Entry>& q : s.queues) {
        for (const Entry& e : q) {
          if (e.granted) held.push_back({lock, e.txn, e.mode});
        }
      }
    }
    return held;
  }

  /// The class of the entry `txn` holds on `lock` (0 if none).
  Priority ClassOfHolder(LockId lock, TxnId txn) const {
    const auto it = locks_.find(lock);
    if (it == locks_.end()) return 0;
    for (int c = 0; c < num_classes_; ++c) {
      for (const Entry& e : it->second.queues[c]) {
        if (e.granted && e.txn == txn) return static_cast<Priority>(c);
      }
    }
    return 0;
  }

 private:
  struct Entry {
    LockMode mode;
    TxnId txn;
    bool granted;
  };
  struct State {
    std::vector<std::deque<Entry>> queues;  ///< One per class.
  };

  int ClassOf(Priority priority) const {
    return priority < num_classes_ ? priority : num_classes_ - 1;
  }

  State& StateOf(LockId lock) {
    State& s = locks_[lock];
    if (s.queues.empty()) s.queues.resize(num_classes_);
    return s;
  }

  int num_classes_;
  std::map<LockId, State> locks_;
  std::vector<Grant> grants_;
};

}  // namespace netlock::testing
