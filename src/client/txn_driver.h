// Two-phase-locking transaction driver: acquire the lock set one lock at a
// time in a global order, hold it through execution, release everything at
// commit. One copy for all three front-ends — the simulated closed loop
// (TxnEngine), the simulated Poisson loop (OpenLoopEngine) and the
// wall-clock closed loop (rt::RtClientPool). A front-end decides only when
// things happen and reports each event (grant, commit, policy abort,
// wound); the driver advances the transaction, does the accounting, and
// emits every release and cancel to a sink functor
// `void(TxnOp, const LockRequest&, TxnId)`: LockSession calls in the
// simulator, a staged RtRequest on rt. A template parameter, not a virtual
// call, so the rt hot path pays no indirection for it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"
#include "workload/workload.h"

namespace netlock {

/// Bits of a txn id reserved for the per-engine counter; the engine id
/// occupies the bits above them.
inline constexpr int kTxnCounterBits = 40;

/// Builds the txn id `(engine_id << kTxnCounterBits) | counter`, checking
/// that the counter has not overflowed into the engine-id bits (which would
/// alias txn ids across engines).
inline TxnId MakeTxnId(std::uint32_t engine_id, std::uint64_t counter) {
  NETLOCK_CHECK(counter < (std::uint64_t{1} << kTxnCounterBits));
  return (static_cast<TxnId>(engine_id) << kTxnCounterBits) | counter;
}

/// The engine id MakeTxnId encoded into `txn`.
inline std::uint32_t EngineOfTxn(TxnId txn) {
  return static_cast<std::uint32_t>(txn >> kTxnCounterBits);
}

/// One engine's txn ids; a retry takes a fresh, younger one.
struct TxnIdSource {
  std::uint32_t engine_id = 0;
  std::uint64_t counter = 0;

  TxnId Next() { return MakeTxnId(engine_id, ++counter); }
};

/// The 2PL acquire order: sorts by `unit(lock)`, the backend's conflict
/// unit (exclusive before shared, then by lock id, within a unit), and keeps
/// one request per unit. Coarsening backends (NetChain cells) need this, or
/// hash collisions produce deadlock cycles no lock order prevents.
/// Front-ends skip it under preserve_workload_order.
template <typename UnitFn>
void OrderLockSet(std::vector<LockRequest>& locks, UnitFn unit) {
  std::sort(locks.begin(), locks.end(),
            [&unit](const LockRequest& a, const LockRequest& b) {
              const LockId ua = unit(a.lock);
              const LockId ub = unit(b.lock);
              if (ua != ub) return ua < ub;
              if (a.mode != b.mode) return a.mode == LockMode::kExclusive;
              return a.lock < b.lock;
            });
  locks.erase(std::unique(locks.begin(), locks.end(),
                          [&unit](const LockRequest& a, const LockRequest& b) {
                            return unit(a.lock) == unit(b.lock);
                          }),
              locks.end());
}

/// What the driver sends to its sink.
enum class TxnOp : std::uint8_t {
  kRelease,  ///< Release a granted lock.
  kCancel,   ///< Withdraw the in-flight acquire and drop its queue entry.
};

/// One transaction's progress through its lock set.
struct TxnState {
  TxnSpec spec;
  /// The live attempt's id; kInvalidTxn once it committed or aborted.
  /// Events carrying any other id are stale.
  TxnId id = kInvalidTxn;
  std::size_t next_lock = 0;  ///< Locks [0, next_lock) are held.
  SimTime started = 0;        ///< Start of the current attempt.
  SimTime lock_issued = 0;    ///< Issue time of the pending acquire.

  bool Is(TxnId txn) const { return txn == id; }
  /// The lock the in-flight acquire asks for; kInvalidLock when none is.
  LockId pending_lock() const {
    return next_lock < spec.locks.size() ? spec.locks[next_lock].lock
                                         : kInvalidLock;
  }
};

/// What a grant leaves the transaction needing.
enum class GrantStep : std::uint8_t {
  kStale,        ///< Grant for an ended attempt: ignored.
  kAcquireNext,  ///< Issue the next acquire.
  kAllHeld,      ///< Every lock held: execute, then commit.
};

/// Unconditional outcome counters (not gated on the recording window).
struct TxnCounters {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;  ///< Ended attempts that were not commits.
  std::uint64_t wounds = 0;  ///< Of those, held-lock revocations.
  /// Sum over committed transactions of their lock-set sizes. Unlike raw
  /// grant counts this is timing-independent on a fixed-count run, so the
  /// cross-backend tests can compare it exactly.
  std::uint64_t committed_lock_grants = 0;
};

/// The transitions of a 2PL transaction and their accounting, for any
/// number of TxnStates. `rec` gates the RunMetrics recording (measurement
/// window); `now` is only read when it is set. Every transition but Begin
/// and Issue ignores a stale id.
template <typename Sink>
class TxnDriver {
 public:
  explicit TxnDriver(Sink sink) : sink_(std::move(sink)) {}

  /// Starts an attempt at `t.spec` under `id`, holding nothing.
  void Begin(TxnState& t, TxnId id, SimTime now) {
    t.id = id;
    t.next_lock = 0;
    t.started = now;
  }

  /// The acquire to issue next; stamps its issue time.
  const LockRequest& Issue(TxnState& t, SimTime now, bool rec) {
    NETLOCK_CHECK(t.id != kInvalidTxn && t.next_lock < t.spec.locks.size());
    t.lock_issued = now;
    if (rec) ++metrics_.lock_requests;
    return t.spec.locks[t.next_lock];
  }

  /// The pending acquire of attempt `id` was granted.
  GrantStep Grant(TxnState& t, TxnId id, SimTime now, bool rec) {
    if (!t.Is(id)) return GrantStep::kStale;
    NETLOCK_CHECK(t.next_lock < t.spec.locks.size());
    if (rec) {
      ++metrics_.lock_grants;
      metrics_.lock_latency.Record(now - t.lock_issued);
    }
    ++t.next_lock;
    return t.next_lock < t.spec.locks.size() ? GrantStep::kAcquireNext
                                             : GrantStep::kAllHeld;
  }

  /// Commits attempt `id`, which holds every lock: releases them all.
  /// False if it already ended (a wound during think time).
  bool Commit(TxnState& t, TxnId id, SimTime now, bool rec) {
    if (!t.Is(id)) return false;
    NETLOCK_CHECK(t.next_lock == t.spec.locks.size());
    ReleaseHeld(t, kInvalidLock);
    t.id = kInvalidTxn;
    ++counters_.commits;
    counters_.committed_lock_grants += t.spec.locks.size();
    if (rec) {
      ++metrics_.txn_commits;
      metrics_.txn_latency.Record(now - t.started);
    }
    return true;
  }

  /// The pending acquire of attempt `id` failed (a deadlock policy refused
  /// it, or it timed out): releases the held prefix, ends the attempt.
  bool Abort(TxnState& t, TxnId id, bool rec) {
    if (!t.Is(id)) return false;
    ReleaseHeld(t, kInvalidLock);
    EndAborted(t, rec);
    return true;
  }

  /// Wound-wait revoked `wounded`, a lock attempt `id` holds: releases
  /// every other held lock, cancels the acquire still in flight, ends the
  /// attempt. Releasing the wounded lock would pop some other waiter's
  /// entry (its own is already gone); the cancel keeps a doomed queue entry
  /// from stalling the queue.
  bool Wound(TxnState& t, TxnId id, LockId wounded, bool rec) {
    if (!t.Is(id)) return false;
    ++counters_.wounds;
    ReleaseHeld(t, wounded);
    if (t.next_lock < t.spec.locks.size()) {
      sink_(TxnOp::kCancel, t.spec.locks[t.next_lock], t.id);
    }
    EndAborted(t, rec);
    return true;
  }

  RunMetrics& metrics() { return metrics_; }
  const RunMetrics& metrics() const { return metrics_; }
  const TxnCounters& counters() const { return counters_; }

 private:
  void ReleaseHeld(const TxnState& t, LockId skip) {
    for (std::size_t i = 0; i < t.next_lock; ++i) {
      const LockRequest& req = t.spec.locks[i];
      if (req.lock != skip) sink_(TxnOp::kRelease, req, t.id);
    }
  }

  void EndAborted(TxnState& t, bool rec) {
    t.id = kInvalidTxn;
    ++counters_.aborts;
    if (rec) ++metrics_.retries;
  }

  Sink sink_;
  RunMetrics metrics_;
  TxnCounters counters_;
};

}  // namespace netlock
