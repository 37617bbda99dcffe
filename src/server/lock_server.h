// The NetLock lock server (paper Sections 3.2, 4.3, 5).
//
// Plays two roles:
//   1. Owner of unpopular locks: requests the switch is not responsible for
//      are forwarded here and both queued and granted by the server, with
//      the same queue semantics as the switch path (entries live in the
//      queue until released; grants follow Algorithm 2's rules).
//   2. Overflow buffer for switch-resident locks: buffer-only requests are
//      appended to q2[i] and never granted here; on a queue-empty
//      notification the server pushes up to the free-slot count back to the
//      switch and reports the remaining q2 depth.
//
// The CPU model mirrors the prototype's DPDK server: RSS hashes each lock
// onto one of `cores` receive queues, and each core processes requests FIFO
// at a fixed per-request service time (defaults give 18 MRPS at 8 cores,
// the rate reported in Section 5). This is what makes servers — never the
// switch — the bottleneck, reproducing Figures 9-11.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "core/lock_engine.h"
#include "dataplane/slot.h"
#include "net/lock_wire.h"
#include "sim/network.h"
#include "sim/service_queue.h"

namespace netlock {

struct LockServerConfig {
  int cores = 8;
  /// Per-request CPU service time; 444 ns ~= 2.25 MRPS per core.
  SimTime per_request_service = 444;
  /// Deadlock-handling policy applied by the lock engine (conflicting
  /// acquires are refused / wound per the policy instead of queueing).
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kNone;
};

/// The per-lock queue/grant protocol itself lives in core/lock_engine.h —
/// compiled once and shared with the real-time backend (rt/rt_lock_service)
/// — while this class supplies everything simulation-specific: the RSS-core
/// CPU model, the wire protocol (parse/build packets), the q2 overflow
/// buffer handshake with the switch, dedup filters, and failure injection.
class LockServer : private GrantSink {
 public:
  LockServer(Network& net, LockServerConfig config = LockServerConfig{});

  NodeId node() const { return node_; }
  const LockServerConfig& config() const { return config_; }

  /// Switch node used for pushes/acks in the overflow protocol. Must be set
  /// before any buffer-only traffic arrives.
  void set_switch_node(NodeId node) { switch_node_ = node; }

  // --- Control plane (invoked directly by the NetLock control plane; in a
  // deployment these are RPCs on the server daemon) ---

  /// Converts a lock's q2 buffer into an owned, active queue and processes
  /// it (used when a lock is migrated from the switch to this server).
  void TakeOwnership(LockId lock);

  /// Marks that the switch now owns this lock. Precondition: drained here.
  /// The lock counts as handed off (see DropState).
  void DropOwnership(LockId lock);

  /// Unconditionally discards owned state for a lock the switch is taking
  /// over after quiescence (e.g., when an allocation is installed following
  /// a profiling phase). Any entries still queued are ghosts — grants whose
  /// clients already moved on (duplicate retransmissions) — and their
  /// eventual releases will be absorbed as stale by the new owner.
  void EvictOwnership(LockId lock);

  /// Pauses an owned lock for migration to the switch: new requests are
  /// buffered, grants stop, existing holders drain via releases.
  void PauseLock(LockId lock, bool paused);

  /// True when an owned lock has no queued entries (drained).
  bool QueueEmpty(LockId lock) const;

  /// Entries waiting on `lock` server-side (owned queue plus q2 overflow
  /// buffer) — the self-driving controller's migration-cost input: each is
  /// a request a pause-drain-move would delay.
  std::size_t QueueDepth(LockId lock) const;

  /// Re-sends requests buffered while paused to the switch as fresh
  /// acquires (order-preserving); used to complete server->switch moves.
  void ForwardBufferedToSwitch(LockId lock);

  /// Forced-releases expired queue heads (lease handling, Section 4.5).
  void ClearExpired(SimTime lease);

  // --- Failure handling (Section 4.5) ---

  /// Crashes the server: all packets are dropped and all lock state is
  /// lost. A failed server's locks are reassigned by the control plane.
  void Fail();

  /// Restarts the server empty.
  void Restart();

  bool failed() const { return failed_; }

  /// Grace period after taking over a failed peer's locks: owned locks
  /// *created* before `until` queue requests without granting, and are
  /// activated together at `until` — "the server waits for the leases to
  /// expire before granting the locks" (Section 4.5), so no grant can
  /// overlap one issued by the dead server.
  void GracePeriodUntil(SimTime until);
  SimTime grace_until() const { return grace_until_; }

  /// The core whose receive queue `lock`'s requests land on (RssCore).
  int CoreFor(LockId lock) const;

  /// Number of requests currently buffered in q2 for a lock.
  std::size_t OverflowDepth(LockId lock) const;

  /// Harvests per-lock demand counters for owned locks (rates normalized by
  /// `window_sec`), appending to `out`, and resets them (§4.3).
  void HarvestDemands(double window_sec, std::vector<LockDemand>& out);

  /// Locks this server currently owns state for (failover bookkeeping).
  std::vector<LockId> OwnedLocks() const;

  /// Drops all state (owned queue + q2 buffer) for one lock. Used when a
  /// recovered peer takes its locks back: waiters here recover via client
  /// retransmission, and in-flight releases become stale at the new owner.
  /// The lock counts as handed off: until TakeOwnership (or the alive
  /// server set changes, GracePeriodUntil), a late acquire for it that is
  /// not buffer-only goes to the switch, which routes it to the lock's
  /// owner, instead of re-creating ownership here.
  void DropState(LockId lock);

  void set_grant_observer(
      std::function<void(LockId, TxnId, LockMode, NodeId)> observer) {
    grant_observer_ = std::move(observer);
  }

  /// Fires synchronously when the deadlock policy refuses or wounds an
  /// entry — for wounds this is *before* the resulting cascade grants, so a
  /// feed built from this observer plus the grant observer linearizes.
  void set_abort_observer(
      std::function<void(LockId, TxnId, AbortReason, NodeId)> observer) {
    abort_observer_ = std::move(observer);
  }

  // --- Statistics ---
  struct Stats {
    std::uint64_t grants = 0;
    std::uint64_t releases = 0;
    std::uint64_t buffered = 0;       ///< Requests appended to q2.
    std::uint64_t pushes_sent = 0;    ///< q2 entries pushed to the switch.
    std::uint64_t requests_processed = 0;
    std::uint64_t stale_releases = 0;
    std::uint64_t duplicate_releases = 0;  ///< Dropped by the dedup filter.
    /// Releases whose mode (or, for exclusive, transaction) did not match
    /// the queue head — from an entry the lease sweep already reclaimed.
    /// Dropped instead of popping another waiter's entry.
    std::uint64_t mismatched_releases = 0;
    std::uint64_t duplicate_notifies = 0;  ///< Stale/dup kQueueEmpty dropped.
    std::uint64_t aborts_refused = 0;   ///< no-wait / wait-die refusals.
    std::uint64_t wounds = 0;           ///< Entries revoked by wound-wait.
    std::uint64_t cancels_removed = 0;  ///< Entries removed by kCancel.
  };
  const Stats& stats() const { return stats_; }

 private:
  void OnPacket(const Packet& pkt);
  void Process(const LockHeader& hdr);
  void ProcessOwnedAcquire(const LockHeader& hdr);
  void ProcessOwnedRelease(const LockHeader& hdr);
  void ProcessCancel(const LockHeader& hdr);
  void ProcessBufferOnly(const LockHeader& hdr);
  void ProcessQueueEmpty(const LockHeader& hdr);

  // GrantSink: the engine decided to grant; build and send the packet.
  void DeliverGrant(LockId lock, const QueueSlot& slot) override;
  void OnWaitEnd(LockId lock, const QueueSlot& slot, SimTime now) override;
  // GrantSink: the deadlock policy refused/revoked an entry; notify client.
  void DeliverAbort(LockId lock, const QueueSlot& slot,
                    AbortReason reason) override;

  void ActivateGraced();

  /// Sends `req` to the switch as a fresh acquire.
  void ForwardToSwitch(LockHeader req);

  Network& net_;
  LockServerConfig config_;
  NodeId node_;
  TraceLog* trace_;  ///< Request-lifecycle tracing (resolved once).
  /// Rack label captured at construction (TraceLog::current_pid); asserted
  /// while this server processes requests so shared-log spans split by rack.
  std::uint32_t trace_pid_ = 0;
  NodeId switch_node_ = kInvalidNode;
  std::vector<std::unique_ptr<ServiceQueue>> cores_;
  /// The shared wait-queue protocol (also driven by the rt backend).
  LockEngine engine_;
  std::unordered_map<LockId, std::deque<QueueSlot>> q2_;
  /// Locks handed off by DropOwnership or DropState, not taken back.
  std::unordered_set<LockId> handed_off_;
  /// Release-dedup fingerprints (hash-indexed, of the releases already
  /// applied): drops network-retransmitted RELEASE copies before they
  /// blind-pop another waiter's entry.
  std::vector<std::uint64_t> release_filter_;
  /// Per-instance nonce stamped into each grant's aux (see the switch's
  /// grant_nonce_): lets clients drop network-duplicated grant copies
  /// without swallowing the grant of a second, retransmission-created queue
  /// entry. Not reset across failures for the same collision-avoidance
  /// reason.
  std::uint32_t grant_nonce_ = 1;
  /// Timestamp of the newest kQueueEmpty notify seen per lock: a duplicated
  /// (or reordered, older) notify must not trigger a second push batch —
  /// the switch sized the first batch to its free slots.
  std::unordered_map<LockId, SimTime> last_push_notify_;
  bool failed_ = false;
  SimTime grace_until_ = 0;
  std::vector<LockId> graced_locks_;
  Stats stats_;

  /// Registry instruments (resolved once; shared across server instances).
  struct Metrics {
    MetricCounter* grants;
    MetricCounter* releases;
    MetricCounter* buffered;
    MetricCounter* pushes;
    MetricCounter* requests;
    MetricGauge* q2_depth;  ///< Total q2 entries buffered (hwm tracked).
  };
  Metrics metrics_;
  /// Keeps metrics_.q2_depth consistent across every q2 mutation path.
  void AdjustQ2Depth(std::int64_t delta);

  std::function<void(LockId, TxnId, LockMode, NodeId)> grant_observer_;
  std::function<void(LockId, TxnId, AbortReason, NodeId)> abort_observer_;
};

}  // namespace netlock
