// Register cell types used by the NetLock switch data plane.
//
// The hardware prototype stores each field in (paired) 32-bit registers
// spread across stages; we model the per-lock bookkeeping as one logical
// cell per array so that the single read-modify-write per pass — the
// constraint that drives Algorithm 2's resubmit structure — is preserved at
// the granularity the algorithm actually needs.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace netlock {

/// One slot of the shared request queue (paper Figure 4: "mode, transaction
/// ID, client IP", ~20 B with metadata). `tenant` and `timestamp` are the
/// "additional metadata such as timestamp and tenant ID" of Section 4.2;
/// `priority` is the request's §4.4 priority, so an entry pushed back from
/// (or bounced to) the server's q2 returns to its own class's ring.
struct QueueSlot {
  LockMode mode = LockMode::kExclusive;
  Priority priority = 0;
  TxnId txn_id = kInvalidTxn;
  NodeId client_node = kInvalidNode;
  TenantId tenant = 0;
  SimTime timestamp = 0;

  friend bool operator==(const QueueSlot&, const QueueSlot&) = default;
};

/// One priority class's queue in a lock's region: Algorithm 2's circular
/// queue. `head`/`tail` are absolute indices into the shared queue,
/// constrained to the class's [left, right) region. Holders are the first
/// `granted` entries; waiters queue behind them.
struct ClassRing {
  std::uint32_t head = 0;
  std::uint32_t tail = 0;
  std::uint32_t count = 0;    ///< Queued entries (including holders).
  std::uint32_t xcnt = 0;     ///< Exclusive entries among them.
  std::uint32_t granted = 0;  ///< Holders: the first `granted` entries.
};

/// One lane of a lock's stage-1 queue metadata. A lock with P priority
/// classes owns a row of P lanes, read or written as one access: lane c
/// holds class c's ring, and lane 0 also holds the state that exists once
/// per lock — the admission decision's inputs, the overflow episode,
/// suspension and the demand counters.
struct LockMeta {
  ClassRing ring;
  /// Buffer-only requests forwarded to the server since the last
  /// queue-empty notification. Nonzero means requests are in flight toward
  /// q2, so a "q2 drained" reply from the server must not end the overflow
  /// episode yet (see the protocol walkthrough in switch_dataplane.cc).
  std::uint32_t fwd_since_notify = 0;
  /// Demand counters for Algorithm 3 (§4.3: "NetLock maintains two counters
  /// to track r_i and c_i for each lock"). Harvested and reset by the
  /// control plane.
  std::uint32_t max_count = 1;   ///< Max queue occupancy this window (c_i).
  bool overflow = false;        ///< q1 overflowed; new requests go to q2.
  /// Queue-but-don't-grant mode, used during switch failover (§4.5): a
  /// fresh backup suspends grants until pre-failure leases expire, and a
  /// restarted primary suspends each lock until the backup's queue for it
  /// drains ("we only grant locks from the backup switch until the queue
  /// in the backup switch gets empty").
  bool suspended = false;
  bool held_exclusive = false;  ///< The (single) holder is exclusive.
  std::uint64_t req_count = 0;   ///< Requests seen this window (r_i).
  /// When the last queue-empty notification was sent. If a protocol packet
  /// (notify/push/resume) is lost, the lock would wedge with q1 empty and
  /// q2 full; the control plane's lease sweep re-arms the handshake once
  /// this is older than a lease (see LockSwitch::ClearExpired).
  SimTime last_notify = 0;
};

/// Runtime-adjustable region boundaries of a lock's queue in the shared
/// queue (paper Figure 5: left_B / right_B registers), one per class.
struct LockBounds {
  std::uint32_t left = 0;
  std::uint32_t right = 0;  ///< Exclusive.

  std::uint32_t size() const { return right - left; }
};

/// Priority classes supported by the register layout (bounded by pipeline
/// stages, paper §4.4: "the number of priorities is limited to the number
/// of stages").
inline constexpr int kMaxPriorities = 8;

}  // namespace netlock
