// Workload generator interface: produces transactions as lock-request sets.
//
// The lock manager under test never sees SQL — only the stream of lock
// requests each transaction issues. Generators therefore emit TxnSpecs: an
// ordered list of (lock, mode) pairs the transaction engine acquires with
// two-phase locking.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace netlock {

struct LockRequest {
  LockId lock = kInvalidLock;
  LockMode mode = LockMode::kExclusive;

  friend bool operator==(const LockRequest&, const LockRequest&) = default;
};

struct TxnSpec {
  std::vector<LockRequest> locks;
};

class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;

  /// Draws the next transaction's lock set into `out`: clears it, then
  /// refills it, so a caller that keeps one spec per session reuses its
  /// storage and a steady-state draw allocates nothing. Nothing of `out`'s
  /// previous contents survives, and the RNG draws (hence the lock set) are
  /// exactly those a fresh Next() makes. Lock ids within a transaction are
  /// sorted and deduplicated (deadlock avoidance by global ordering — the
  /// standard discipline; the paper additionally relies on leases to break
  /// deadlocks from undisciplined clients) unless the generator documents
  /// a deliberately unordered set.
  virtual void NextInto(Rng& rng, TxnSpec& out) = 0;

  /// NextInto a fresh spec.
  TxnSpec Next(Rng& rng) {
    TxnSpec txn;
    NextInto(rng, txn);
    return txn;
  }

  /// Number of distinct lock ids this workload can touch (used by control
  /// planes to size directories).
  virtual LockId lock_space() const = 0;
};

/// Sorts by lock id and merges duplicates (an exclusive request subsumes a
/// shared one for the same lock): the 2PL acquire order (OrderLockSet in
/// client/txn_driver.h) with every lock its own conflict unit.
void NormalizeTxn(TxnSpec& txn);

}  // namespace netlock
