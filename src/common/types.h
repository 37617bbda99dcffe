// Core identifier and enum types shared by every NetLock module.
#pragma once

#include <cstdint>

namespace netlock {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::uint64_t;

/// Convenience duration constants (nanoseconds).
inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;

/// Identifies a lock object. The paper partitions locks between the switch
/// and lock servers; lock ids are globally unique within one NetLock instance.
using LockId = std::uint32_t;

/// Identifies a transaction (unique per client request stream).
using TxnId = std::uint64_t;

/// Identifies a tenant for quota / priority policies.
using TenantId = std::uint16_t;

/// Priority class. Lower value = higher priority (granted first). The switch
/// supports at most one priority class per pipeline stage (paper Section 4.4).
using Priority = std::uint8_t;

/// Identifies a node (client machine, switch, or server) in the simulated
/// rack network.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;
inline constexpr LockId kInvalidLock = 0xffffffffu;
inline constexpr TxnId kInvalidTxn = ~0ull;

/// Lock mode, as carried in the request header (paper Section 4.2).
enum class LockMode : std::uint8_t {
  kShared = 0,
  kExclusive = 1,
};

inline const char* ToString(LockMode m) {
  return m == LockMode::kShared ? "shared" : "exclusive";
}

/// Result of a lock acquire attempt as observed by a client session.
enum class AcquireResult : std::uint8_t {
  kGranted = 0,    ///< Lock granted (possibly after queuing).
  kTimeout = 1,    ///< Lease/retry budget exhausted.
  kRejected = 2,   ///< Policy rejected the request (e.g., quota).
  kAborted = 3,    ///< Deadlock policy refused or revoked the request.
};

/// Deadlock-handling policy applied by a lock manager when an acquire
/// conflicts with queued entries. Transaction *age* is the txn id itself
/// (smaller id = older): ids are assigned monotonically per engine and a
/// retry always gets a fresh (younger) id, so the order is total and
/// identical on the sim and rt backends.
enum class DeadlockPolicy : std::uint8_t {
  kNone = 0,       ///< Queue every conflicting request (lease breaks cycles).
  kNoWait = 1,     ///< Any conflicting acquire is refused immediately.
  kWaitDie = 2,    ///< Older waits; a requester younger than a conflicting
                   ///< queued entry is refused ("dies").
  kWoundWait = 3,  ///< Older wounds (force-aborts) younger conflicting
                   ///< entries and waits; younger waits behind older.
};

inline const char* ToString(DeadlockPolicy p) {
  switch (p) {
    case DeadlockPolicy::kNone:
      return "none";
    case DeadlockPolicy::kNoWait:
      return "no_wait";
    case DeadlockPolicy::kWaitDie:
      return "wait_die";
    case DeadlockPolicy::kWoundWait:
      return "wound_wait";
  }
  return "?";
}

/// Measured (or declared) demand for one lock: the r_i / c_i pair of the
/// paper's memory-allocation formulation (Section 4.3). Produced by the
/// switch/server demand counters, consumed by Algorithm 3.
struct LockDemand {
  LockId lock = kInvalidLock;
  double rate = 0.0;             ///< r_i: requests per second.
  std::uint32_t contention = 1;  ///< c_i: max concurrent requests.
};

inline const char* ToString(AcquireResult r) {
  switch (r) {
    case AcquireResult::kGranted:
      return "granted";
    case AcquireResult::kTimeout:
      return "timeout";
    case AcquireResult::kRejected:
      return "rejected";
    case AcquireResult::kAborted:
      return "aborted";
  }
  return "?";
}

}  // namespace netlock
