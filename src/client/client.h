// Client-side lock sessions.
//
// A LockSession is the narrow interface every lock-manager backend
// (NetLock, DSLR, DrTM, NetChain, server-only) exposes to the transaction
// engine: asynchronous acquire with a completion callback, and release.
// One session models one client thread with at most a handful of
// outstanding operations; a ClientMachine groups sessions that share a NIC
// and models the machine's finite request-generation rate (the prototype's
// DPDK clients generate up to 18 MRPS per machine).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "client/txn_driver.h"
#include "common/types.h"
#include "net/lock_wire.h"
#include "sim/network.h"

namespace netlock {

using AcquireCallback = std::function<void(AcquireResult)>;

/// Backend-agnostic client session interface.
class LockSession {
 public:
  virtual ~LockSession() = default;

  /// Requests `lock` in `mode` for transaction `txn`. Exactly one callback
  /// fires per call (possibly after internal retries).
  virtual void Acquire(LockId lock, LockMode mode, TxnId txn,
                       Priority priority, AcquireCallback cb) = 0;

  /// Releases a lock previously granted to `txn`.
  virtual void Release(LockId lock, LockMode mode, TxnId txn) = 0;

  /// Withdraws a still-pending acquire (no callback will fire) and asks the
  /// manager to drop every queue entry of (lock, txn). Used when a deadlock
  /// policy aborts the transaction while this acquire is in flight. Only
  /// meaningful on backends with a deadlock policy; default no-op.
  virtual void Cancel(LockId lock, LockMode mode, TxnId txn) {
    (void)lock;
    (void)mode;
    (void)txn;
  }

  /// Observer fired when the manager *revokes an already-granted* lock
  /// (wound-wait): the entry is gone server-side, so the holder must treat
  /// the lock as lost and must NOT release it. Default: unsupported no-op.
  virtual void set_wound_observer(std::function<void(LockId, TxnId)> obs) {
    (void)obs;
  }

  /// Network address grants are delivered to.
  virtual NodeId node() const = 0;

  /// Canonical conflict unit for a lock id. Backends that coarsen locks
  /// (NetChain's hash onto switch cells) return the coarse unit, so the
  /// transaction layer can order and deduplicate acquisitions at the
  /// granularity that actually conflicts — otherwise hash collisions
  /// create deadlock cycles no lock ordering can prevent.
  virtual LockId ConflictUnit(LockId lock) const { return lock; }
};

/// TxnDriver sink of the simulated front-ends: releases and cancels go
/// straight to the session.
struct LockSessionSink {
  LockSession* session;

  void operator()(TxnOp op, const LockRequest& req, TxnId txn) const {
    if (op == TxnOp::kRelease) {
      session->Release(req.lock, req.mode, txn);
    } else {
      session->Cancel(req.lock, req.mode, txn);
    }
  }
};

/// A client machine: shared NIC with a finite TX rate.
class ClientMachine {
 public:
  /// `tx_service_time` = time the NIC/driver spends per outgoing request;
  /// 55 ns ~= 18 MRPS, the prototype's per-machine generation limit.
  ClientMachine(Network& net, SimTime tx_service_time = 55)
      : net_(net), tx_service_time_(tx_service_time) {}

  Network& net() { return net_; }

  /// Sends through the machine NIC: packets leave in FIFO order, one every
  /// `tx_service_time`, which caps the machine's aggregate request rate.
  /// The network folds the wait into the packet's delivery time.
  void Send(const Packet& pkt) {
    const SimTime now = net_.sim().now();
    busy_until_ = (busy_until_ > now ? busy_until_ : now) + tx_service_time_;
    net_.Send(pkt, busy_until_ - now);
  }

 private:
  Network& net_;
  SimTime tx_service_time_;
  /// When the NIC finishes the last packet handed to it.
  SimTime busy_until_ = 0;
};

/// The client lock session of both centralized designs: sends acquires and
/// releases to the lock manager and waits for grants. Losses are recovered
/// by lease-scale retransmission (Section 4.5: "clients retry when the
/// leases expire").
///
/// One session, two routes, differing only in where acquires and cancels
/// go. NetLock sessions send them to the rack's lock switch. Server-only
/// sessions (the baseline of Figures 1 and 9) send them straight to the
/// lock's home server, flagged kFlagServerOwned. Releases go back to the
/// grantor on either route.
class NetLockSession : public LockSession {
 public:
  struct Config {
    /// Switch route: the lock switch every acquire goes to.
    NodeId switch_node = kInvalidNode;
    /// Server route when non-empty: acquires go to HomeServer(lock,
    /// home_servers) instead of the switch (switch_node is then unused).
    std::vector<NodeId> home_servers;
    TenantId tenant = 0;
    /// Retransmit an unanswered acquire after this long. Must be on the
    /// order of the lease so duplicates are rare; queued-but-not-granted
    /// requests legitimately wait, so this also bounds queue wait. Fixed
    /// for the session's lifetime: deadlines then come due in the order
    /// they are set, which is what lets one armed event serve them all.
    SimTime retry_timeout = 5 * kMillisecond;
    /// Give up after this many retransmissions and report kTimeout.
    int max_retries = 16;
    /// Lease duration the lock manager enforces (0 = no lease discipline).
    /// Once a grant is older than `lease - lease_release_margin`, the
    /// manager's lease sweep may already have force-released the entry, so
    /// sending our release would pop a *different* waiter's queue slot.
    /// The session then drops the release and lets the sweep reclaim it.
    SimTime lease = 0;
    /// Safety margin: must cover the release's one-way flight time plus
    /// the grant's (the holder timestamps from grant *arrival*, which lags
    /// the manager's grant clock by one delivery).
    SimTime lease_release_margin = 0;
  };

  NetLockSession(ClientMachine& machine, Config config);

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority,
               AcquireCallback cb) override;
  void Release(LockId lock, LockMode mode, TxnId txn) override;
  void Cancel(LockId lock, LockMode mode, TxnId txn) override;
  void set_wound_observer(
      std::function<void(LockId, TxnId)> obs) override {
    wound_observer_ = std::move(obs);
  }
  NodeId node() const override { return node_; }

  /// Re-points future acquires at a different lock switch (backup-switch
  /// failover, §4.5). In-flight requests keep retransmitting to the new
  /// switch; releases go to the switch that granted the lock (see below).
  void set_switch_node(NodeId node) { config_.switch_node = node; }
  NodeId switch_node() const { return config_.switch_node; }

  /// Rewrites the recorded grant source of held locks (chain-replication
  /// failover: the promoted tail holds the dead head's exact state, so
  /// releases recorded against the head must flow to the tail).
  void RedirectGrantSource(NodeId from, NodeId to) {
    for (auto& [key, info] : grant_source_) {
      if (info.source == from) info.source = to;
    }
  }

  std::uint64_t retransmits() const { return retransmits_; }

  /// Releases dropped by the lease discipline (grant too old to release
  /// safely; the manager's lease sweep reclaims the entry instead).
  std::uint64_t releases_suppressed() const { return releases_suppressed_; }

 private:
  /// Sequence number of a pending acquire whose retry is not set (its
  /// quota-reject backoff is running).
  static constexpr std::uint64_t kNoRetry = ~std::uint64_t{0};

  struct Pending {
    LockMode mode;
    Priority priority;
    AcquireCallback cb;
    int attempts = 0;
    /// Guards the reject-backoff event against a resolved or re-issued
    /// request.
    std::uint64_t epoch = 0;
    SimTime issued_at = 0;
    /// Retransmit deadline and the event sequence number reserved for it
    /// (kNoRetry while a reject backoff runs instead).
    SimTime retry_at = 0;
    std::uint64_t retry_seq = kNoRetry;
  };

  /// Destination of acquires and cancels for `lock`: the switch, or the
  /// lock's home server on the server route.
  NodeId RouteFor(LockId lock) const {
    return config_.home_servers.empty()
               ? config_.switch_node
               : HomeServer(lock, config_.home_servers);
  }
  void OnPacket(const Packet& pkt);
  void SendAcquire(LockId lock, TxnId txn, const Pending& pending);
  /// Sets the request's retransmit deadline to retry_timeout from now.
  /// Retry timers are lazy: the session keeps at most one event armed, at
  /// its earliest deadline. retry_timeout is fixed, so a new deadline is
  /// never earlier than the armed one. The deadline's event sequence
  /// number is reserved here, so a live retransmit fires at exactly the
  /// (when, seq) of an event scheduled now.
  void ArmRetry(Pending& pending);
  /// The armed retry event: re-arms at the next live deadline, then
  /// retransmits (or times out) the request whose deadline this was, if it
  /// is still pending. A request resolved since arming leaves nothing to
  /// do.
  void OnRetryTimer(std::uint64_t seq);
  void Invalidate(LockId lock, TxnId txn);
  bool Invalidated(LockId lock, TxnId txn) const;

  ClientMachine& machine_;
  Config config_;
  NodeId node_;
  TraceLog* trace_;  ///< Request-lifecycle tracing (resolved once).
  std::map<std::pair<LockId, TxnId>, Pending> pending_;
  struct GrantInfo {
    /// Grantor node; kInvalidNode for one-RTT kData grants (the reply
    /// comes via the database server — release to switch_node instead).
    NodeId source = kInvalidNode;
    /// Local arrival time of the grant, anchoring the lease discipline.
    SimTime granted_at = 0;
    /// The granted entry's priority; the release names it so the switch
    /// pops the holder's own class ring (§4.4).
    Priority priority = 0;
  };

  /// Where and when each held lock's grant arrived: releases are sent back
  /// to the granting switch, which is what keeps release routing correct
  /// while a backup switch serves during a primary outage (§4.5: "we only
  /// grant locks from the backup switch until the queue ... gets empty").
  std::map<std::pair<LockId, TxnId>, GrantInfo> grant_source_;
  std::uint64_t next_epoch_ = 1;
  /// True while a retry event is scheduled (at most one per session).
  bool retry_armed_ = false;
  std::uint64_t retransmits_ = 0;
  std::uint64_t releases_suppressed_ = 0;
  /// Stamped into LockHeader::aux of every release this session sends. Each
  /// logical release gets a fresh nonce, so the manager-side dedup filters
  /// drop network-retransmitted copies (same nonce) without swallowing a
  /// second legitimate release of the same (lock, txn) — e.g. the ghost
  /// release of a duplicate grant (fresh nonce).
  std::uint32_t release_nonce_ = 1;
  /// Grant-dedup fingerprints, hash-indexed. Keyed by
  /// GrantFingerprint(lock, txn, grantor, grant nonce): a duplicated copy of
  /// a grant matches its original and is dropped (before it can re-trigger
  /// the unsolicited-grant ghost release, which would blind-pop another
  /// waiter's queue entry); the grant of a distinct queue entry carries a
  /// fresh nonce and passes.
  std::vector<std::uint64_t> grant_filter_;
  /// (lock, txn) pairs whose queue entries a deadlock-policy abort (cancel
  /// or wound) removed server-side. A grant for such a pair that was in
  /// flight when the abort landed must NOT take the unsolicited-grant
  /// ghost-release path: its queue entry is already gone, so the release
  /// would blind-pop some *other* waiter's entry. FIFO-bounded.
  std::set<std::pair<LockId, TxnId>> invalidated_;
  std::deque<std::pair<LockId, TxnId>> invalidated_fifo_;
  std::function<void(LockId, TxnId)> wound_observer_;
};

}  // namespace netlock
