// The NetLock switch data-plane module (paper Section 4.2).
//
// Implements, against the programmable-switch substrate:
//   - Algorithm 1's dispatch as one admission stage that every acquire
//     takes once: tenant quota, forward of a lock the switch does not own,
//     buffer-only forward of a paused (migrating) lock; then the queue
//     update. Releases likewise share one front end (unowned forward,
//     dedup filter);
//   - Algorithm 2's acquire/release logic over circular queues in the
//     shared queue, including the four release cases (S->S, S->E, E->S,
//     E->E) realized with resubmit, in one grant cascade that activation
//     of a suspended lock runs too;
//   - the q1/q2 overflow protocol with lock servers (Section 4.3);
//   - policy support (Section 4.4): FCFS starvation-freedom (native to the
//     queues), priority classes, and per-tenant quotas;
//   - lease-based cleanup of expired transactions and switch failure
//     injection (Section 4.5).
//
// One queue layout serves every number of priority classes P >= 1. Each
// class is an Algorithm 2 ring in its own region of the lock's share of the
// shared queue: holders stay at the head, waiters queue behind them, and
// an entry carries its class. A lock's stage-1 metadata is a row of P
// lanes (LockMeta) accessed as one register: lane c is class c's ring, and
// lane 0 also holds the once-per-lock state — the admission decision's
// inputs, the overflow episode, suspension, and the demand counters. With
// P = 1 this is exactly Algorithm 2's single queue.
//
// Fidelity notes. Every path runs under the full register-access
// discipline: one access per register array per pass, stage ordering, and
// resubmit for multi-step operations — exactly the constraints Algorithm 2
// was designed around. The grant cascade examines one slot per pass; the
// stage-1 accounting of each cascade grant rides the next pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "dataplane/lock_table.h"
#include "dataplane/quota.h"
#include "dataplane/shared_queue.h"
#include "dataplane/slot.h"
#include "net/lock_wire.h"
#include "sim/network.h"
#include "switchsim/pipeline.h"

namespace netlock {

struct LockSwitchConfig {
  /// Total shared-queue slots. The prototype provisions 100K (20 B each =
  /// 2 MB of the tens-of-MB on-chip SRAM).
  std::uint32_t queue_capacity = 100'000;
  /// Slots per register array (one array per stage in the pool).
  std::uint32_t array_size = 16'384;
  /// Maximum simultaneously installed locks (exact-match table + metadata
  /// array size). Match-action tables hold hundreds of thousands of
  /// entries on Tofino-class hardware; the shared queue, not this table,
  /// is the scarce resource.
  std::uint32_t max_locks = 131'072;
  /// Hardware stage budget (Tofino-class: 10-20).
  int num_stages = 12;
  /// Priority classes (§4.4), one Algorithm 2 ring each; 1 is the paper's
  /// single queue. A request's class is its priority, clamped to the last
  /// class. Bounded by the stage budget (paper: "the number of priorities
  /// is limited to the number of stages").
  std::uint8_t num_priorities = 1;
};

/// Observer invoked on every grant the switch issues (used by test oracles
/// and the experiment harness; never on the critical path in benchmarks
/// unless installed).
using GrantObserver =
    std::function<void(LockId, TxnId, LockMode, NodeId client)>;

/// Observer invoked when the switch accepts an acquire into its queue (or
/// decides to overflow it to the server), with the class it queues in.
/// Fires at the admission decision, i.e. in queue order — the FIFO oracle
/// pairs it with the grant observer.
using QueueObserver = std::function<void(LockId, TxnId, LockMode,
                                         Priority cls, bool overflowed)>;

class LockSwitch {
 public:
  LockSwitch(Network& net, LockSwitchConfig config = LockSwitchConfig{});

  NodeId node() const { return node_; }
  const LockSwitchConfig& config() const { return config_; }

  // --- Control plane: lock placement (Section 4.3) ---

  /// Installs a lock with `slots` queue slots. When num_priorities > 1 the
  /// slots are split across the classes as evenly as possible (remainder to
  /// the highest-priority classes), each class getting at least one slot,
  /// so at least max(slots, num_priorities) are allocated in total.
  /// Returns false if switch memory or the lock table is exhausted.
  /// `suspended` installs in queue-but-don't-grant mode (failover, §4.5);
  /// call Activate() to begin granting.
  bool InstallLock(LockId lock, NodeId home_server, std::uint32_t slots,
                   bool suspended = false);

  /// Leaves suspended mode and grants the head of the highest non-empty
  /// class (plus the leading shared batch) exactly as a release cascade
  /// would. No-op when already active.
  void Activate(LockId lock);

  /// True if the lock is installed and in suspended mode.
  bool IsSuspended(LockId lock) const;

  /// Re-enters suspended mode for an installed lock: requests keep queuing
  /// but nothing is granted until Activate(). Used by failover when the
  /// primary fails again while this (backup) switch still holds queues.
  void Suspend(LockId lock);

  /// True if the lock is installed in the switch.
  bool IsInstalled(LockId lock) const {
    return table_.Find(lock) != nullptr;
  }

  /// Pauses enqueuing for a lock being moved: new requests are forwarded to
  /// the home server marked buffer-only until the queue drains (§4.3).
  void PauseLock(LockId lock, bool paused);

  /// True when a lock's queues hold no entries (safe to remove).
  bool QueueEmpty(LockId lock) const;

  /// Removes a drained lock and frees its region.
  void RemoveLock(LockId lock);

  /// Directory entry for locks the switch does not own: where to forward.
  void SetHomeServer(LockId lock, NodeId server) {
    table_.SetHomeServer(lock, server);
  }

  /// Drops a lock's directory entry: the default route applies again.
  void ClearHomeServer(LockId lock) { table_.ClearHomeServer(lock); }

  /// Fallback route for locks with no explicit directory entry — the
  /// hash-partitioning the clients' directory service uses. Keeps the
  /// switch's exact-match table small even for huge lock spaces.
  void SetDefaultRoute(std::function<NodeId(LockId)> route) {
    default_route_ = std::move(route);
  }

  /// Enables one-RTT transactions (§4.1): grants are forwarded to the
  /// lock's database server — which returns the item together with the
  /// implied grant — instead of being sent back to the client. Pass
  /// nullptr to disable.
  void SetOneRttRoute(std::function<NodeId(LockId)> db_route) {
    db_route_ = std::move(db_route);
  }

  /// Resolves a lock's home server (explicit entry, then default route).
  NodeId RouteFor(LockId lock) const {
    const NodeId node = table_.HomeServer(lock);
    if (node != kInvalidNode) return node;
    return default_route_ ? default_route_(lock) : kInvalidNode;
  }

  SwitchLockTable& table() { return table_; }
  TenantQuota& quota() { return *quota_; }

  // --- Control plane: lease handling and failure (Section 4.5) ---

  /// What a lease sweep should do — split so chain replication can run the
  /// forced releases on the head (where they replicate down the chain) and
  /// the overflow re-arm on the tail (the emitting replica).
  enum class SweepScope {
    kAll,
    kForcedReleasesOnly,
    kOverflowRearmOnly,
  };

  /// Clears entries whose lease expired: forced-releases expired queue heads
  /// and expired holders so blocked requests make progress, and re-arms
  /// wedged overflow episodes. Called periodically by the control plane.
  void ClearExpired(SimTime lease, SweepScope scope = SweepScope::kAll);

  // --- Chain replication (paper §6.5's closing remark: chaining NetLock
  // switches shrinks fail-over downtime to a routing update) ---

  /// Makes this switch the chain head: every applied state-changing op is
  /// forwarded to `tail`, and all client/server-facing emissions are
  /// suppressed (the tail is the emitting replica).
  void ConfigureChainHead(NodeId tail);

  /// Makes this switch the chain tail: ops arrive pre-admitted from the
  /// head; emissions carry `head_src` as their source address so releases
  /// and retransmissions keep entering the chain at the head.
  void ConfigureChainTail(NodeId head_src);

  /// Leaves chain mode (tail promotion after head failure, or teardown).
  void PromoteStandalone();

  bool chained() const {
    return chain_next_ != kInvalidNode || src_override_ != kInvalidNode;
  }

  /// Injects a switch failure: all subsequent packets are dropped.
  void Fail();

  /// Restarts the switch: register state (queues, metadata, installed
  /// locks) is lost — "the switch retains none of its former state" — but
  /// directory routing survives (it mirrors the external directory service).
  void Restart();

  bool failed() const { return failed_; }

  /// Installs an observer for every switch-issued grant.
  void set_grant_observer(GrantObserver observer) {
    grant_observer_ = std::move(observer);
  }

  /// Installs an observer for every acquire admission decision.
  void set_queue_observer(QueueObserver observer) {
    queue_observer_ = std::move(observer);
  }

  // --- Statistics ---
  struct Stats {
    std::uint64_t grants = 0;          ///< Locks granted by the switch.
    std::uint64_t releases = 0;        ///< Releases processed.
    std::uint64_t forwarded_unowned = 0;   ///< To servers: not our lock.
    std::uint64_t forwarded_overflow = 0;  ///< To servers: buffer-only.
    std::uint64_t rejected_quota = 0;
    std::uint64_t queue_empty_notifies = 0;
    std::uint64_t pushes_accepted = 0;
    std::uint64_t dropped_while_failed = 0;
    std::uint64_t stale_releases = 0;
    std::uint64_t duplicate_releases = 0;  ///< Dropped by the dedup filter.
    /// Releases whose mode/txn did not match the queue head (the releaser's
    /// entry was already reclaimed): dropped by the validation pass instead
    /// of blind-popping another waiter's entry.
    std::uint64_t mismatched_releases = 0;
  };
  const Stats& stats() const { return stats_; }
  std::uint64_t resubmits() const { return pipeline_.total_resubmits(); }

  /// Harvests per-lock demand counters (r_i as a rate over `window_sec`,
  /// c_i as max occupancy) for installed locks, appending to `out`, and
  /// resets the counters (§4.3 reallocation input).
  void HarvestDemands(double window_sec, std::vector<LockDemand>& out);

  /// Direct data-plane entry (bypasses the network); used by unit tests.
  void HandlePacket(const Packet& pkt);

  /// Control-plane inspection of one installed lock (diagnostics, tests).
  struct DebugState {
    LockMeta meta;                 ///< Lane 0: the once-per-lock state.
    PerPriority<ClassRing> rings;  ///< Every class's ring.
  };
  DebugState Debug(LockId lock) const;

 private:
  struct AcquireDecision {
    enum class Kind { kEnqueueGrant, kEnqueueWait, kForwardOverflow } kind;
    std::uint32_t slot_index = 0;
  };

  /// The admission stage every acquire and push takes once (Algorithm 1):
  /// quota, then forward an unowned lock to its server, then forward a
  /// paused lock's request buffer-only; what is left goes to Enqueue.
  void HandleAcquire(const LockHeader& hdr, bool pushed);
  /// The queue update: grant, enqueue into the request's class ring, or
  /// overflow to the server's q2.
  void Enqueue(const LockHeader& hdr, bool pushed,
               const SwitchLockEntry& entry, PacketPass& pass);
  /// The release front end: forward an unowned lock's release, then drop a
  /// retransmitted copy (dedup filter), then Dequeue. Returns false when
  /// the release was dropped as a duplicate — the caller must not
  /// chain-forward it.
  bool HandleRelease(const LockHeader& hdr, bool lease_forced);
  /// Validated peek-then-pop of a holder's entry, then the grant cascade
  /// if the lock is left without holders.
  void Dequeue(const LockHeader& hdr, bool lease_forced,
               const SwitchLockEntry& entry, PacketPass& pass);
  void HandleResume(const LockHeader& hdr);
  /// Dedup-filter RMW (stage 0, before any other register access on the
  /// release pass). True when hdr is a retransmitted copy already seen.
  bool DuplicateRelease(const LockHeader& hdr, PacketPass& pass);
  /// Counts (and traces) a release the validation dropped: stale (nothing
  /// held) or mismatched (not the holder's mode / transaction).
  void DropRelease(const LockHeader& hdr, bool mismatched);
  /// Algorithm 2's grant cascade on a lock left without holders, starting
  /// at slot `index`, the head of class `cls` (the highest non-empty one):
  /// grants that entry whatever its mode and, if it is shared, every shared
  /// entry after it in class order up to the first exclusive (S->E, E->E,
  /// E->S). One slot per pass; each grant's stage-1 accounting rides the
  /// next pass, which also picks the next candidate. Activate runs it too.
  void GrantCascade(LockId lock, std::size_t row,
                    std::span<const LockBounds> bounds, Priority cls,
                    std::uint32_t index, PacketPass& pass);
  /// A lease sweep's forced release of `head`, the head entry of class
  /// `cls`; each carries a fresh nonce (see forced_release_nonce_).
  LockHeader ForcedRelease(LockId lock, const QueueSlot& head, Priority cls);

  /// The class a request or entry of priority `priority` queues in.
  Priority ClassOf(Priority priority) const {
    return std::min<Priority>(priority, config_.num_priorities - 1);
  }
  /// First cell of a lock's row in the per-class register arrays.
  std::size_t RowOf(const SwitchLockEntry& entry) const {
    return std::size_t{entry.meta_index} * config_.num_priorities;
  }

  /// Grants a queued entry (pre-restamp `slot`), tracing its queue wait.
  void GrantQueued(LockId lock, const QueueSlot& slot);
  void SendGrant(const LockHeader& request);
  void EmitReject(const LockHeader& request);
  /// Sends an acquire the switch will not queue to `server`'s q2 (§4.3).
  void ForwardBufferOnly(const LockHeader& hdr, NodeId server);
  void SendToServer(LockHeader hdr, NodeId server, std::uint8_t extra_flags);
  /// Tells the server q1 drained. The free-slot count is the smallest
  /// class region, so a pushed batch fits whatever its classes.
  void SendQueueEmptyNotify(LockId lock, NodeId server,
                            std::span<const LockBounds> bounds);
  void Emit(Packet pkt);
  void ChainForward(LockHeader hdr, std::uint8_t extra_flags);

  Network& net_;
  LockSwitchConfig config_;
  NodeId node_;
  Pipeline pipeline_;
  TraceLog* trace_;  ///< Request-lifecycle tracing (resolved once).
  /// Rack label captured at construction (TraceLog::current_pid); asserted
  /// while this switch handles packets so shared-log spans split by rack.
  std::uint32_t trace_pid_ = 0;

  // Register arrays. Stage 0 = quota, release filter and per-class region
  // boundaries; stage 1 = the per-lock queue-metadata rows; 2.. = the
  // pooled shared-queue arrays.
  std::unique_ptr<TenantQuota> quota_;
  /// Release-dedup fingerprints, hash-indexed (stage 0): drops
  /// retransmitted copies of a RELEASE before they can blind-pop someone
  /// else's queue entry (releases do not check transaction IDs, §4.2).
  std::unique_ptr<RegisterArray<std::uint64_t>> release_filter_;
  /// One row of num_priorities cells per lock (see RowOf).
  std::unique_ptr<RegisterArray<LockBounds>> bounds_;
  std::unique_ptr<RegisterArray<LockMeta>> meta_;
  std::unique_ptr<SharedQueue> queue_;

  SwitchLockTable table_;
  std::function<NodeId(LockId)> default_route_;
  std::function<NodeId(LockId)> db_route_;

  bool failed_ = false;
  /// Stamped into lease-forced releases' aux so each forced instance has a
  /// distinct fingerprint: a chained replica runs them through its normal
  /// (deduplicating) release path, and two forced releases of the same
  /// ghost entry must both apply there.
  std::uint32_t forced_release_nonce_ = 1;
  /// Stamped into each grant's aux: a per-instance nonce letting clients
  /// distinguish a network-duplicated copy of a grant (same nonce — drop)
  /// from the grant of a second queue entry created by a retransmitted
  /// acquire (fresh nonce — ghost-release it). Deliberately not reset by
  /// Restart(): post-restart grants must never collide with pre-crash
  /// fingerprints still cached in client-side filters.
  std::uint32_t grant_nonce_ = 1;
  NodeId chain_next_ = kInvalidNode;    ///< Head: where ops replicate to.
  NodeId src_override_ = kInvalidNode;  ///< Tail: emission source address.
  bool suppress_emissions_ = false;     ///< Head: tail emits for the chain.
  Stats stats_;

  /// Registry instruments mirroring stats_ (resolved once; see metrics.h).
  struct Metrics {
    MetricCounter* granted;
    MetricCounter* queued;
    MetricCounter* rejected;
    MetricCounter* releases;
    MetricCounter* stale_releases;
    MetricCounter* overflow_episodes;   ///< q1-full episode starts.
    MetricCounter* q1_to_q2_forwards;   ///< Buffer-only forwards to q2.
    MetricCounter* sync_state_rtts;     ///< kSyncState round-trips seen.
    MetricCounter* forwarded_unowned;
    MetricCounter* pushes_accepted;
    MetricCounter* duplicate_releases;  ///< Dedup-filter hits.
    MetricCounter* mismatched_releases; ///< Validation-pass drops.
  };
  Metrics metrics_;

  GrantObserver grant_observer_;
  QueueObserver queue_observer_;
};

}  // namespace netlock
