#include "client/client.h"

#include <tuple>

#include "common/check.h"
#include "core/lock_engine.h"  // AbortReason (carried in kAbort's aux).

namespace netlock {

namespace {
constexpr std::size_t kGrantFilterSlots = 1024;  ///< Grant-dedup cells.
/// Delay before retrying a quota-rejected request.
constexpr SimTime kRejectBackoff = 20 * kMicrosecond;
}  // namespace

NetLockSession::NetLockSession(ClientMachine& machine, Config config)
    : machine_(machine),
      config_(std::move(config)),
      trace_(&machine.net().sim().context().trace()) {
  NETLOCK_CHECK(config_.switch_node != kInvalidNode ||
                !config_.home_servers.empty());
  grant_filter_.assign(kGrantFilterSlots, 0);
  node_ = machine_.net().AddNode(
      [this](const Packet& pkt) { OnPacket(pkt); });
}

void NetLockSession::Acquire(LockId lock, LockMode mode, TxnId txn,
                             Priority priority, AcquireCallback cb) {
  const auto key = std::make_pair(lock, txn);
  NETLOCK_CHECK(pending_.find(key) == pending_.end());
  Pending pending;
  pending.mode = mode;
  pending.priority = priority;
  pending.cb = std::move(cb);
  pending.epoch = next_epoch_++;
  pending.issued_at = machine_.net().sim().now();
  // The request's end-to-end lifetime is an async span: it opens here and
  // closes when the session resolves the request (grant, final reject, or
  // timeout), which may be several retransmissions later.
  if (trace_->Sampled(lock, txn)) {
    trace_->AsyncBegin(TraceTrack::kClient, "lock_request",
                       pending.issued_at, TraceLog::RequestId(lock, txn));
  }
  SendAcquire(lock, txn, pending);
  ArmRetry(pending_.emplace(key, std::move(pending)).first->second);
}

void NetLockSession::Release(LockId lock, LockMode mode, TxnId txn) {
  const SimTime now = machine_.net().sim().now();
  // Release to the switch that granted the lock — during backup-switch
  // failover the grantor may not be the switch new acquires target.
  NodeId target = RouteFor(lock);
  SimTime granted_at = 0;
  bool have_grant_time = false;
  Priority priority = 0;
  const auto src = grant_source_.find(std::make_pair(lock, txn));
  if (src != grant_source_.end()) {
    if (src->second.source != kInvalidNode) target = src->second.source;
    granted_at = src->second.granted_at;
    priority = src->second.priority;
    have_grant_time = true;
    grant_source_.erase(src);
  }
  // Lease discipline: past `lease - margin` after the grant arrived, the
  // manager's lease sweep may have force-released our entry already — our
  // release would then blind-pop a different waiter's slot (Algorithm 2
  // releases "do not check transaction IDs", §4.2). Drop it and let the
  // sweep reclaim the entry; the hold was effectively revoked anyway.
  if (config_.lease > 0 && have_grant_time &&
      now + config_.lease_release_margin >= granted_at + config_.lease) {
    ++releases_suppressed_;
    if (trace_->Sampled(lock, txn)) {
      trace_->Instant(TraceTrack::kClient, "client.release_suppressed", now,
                      TraceLog::RequestId(lock, txn));
    }
    return;
  }
  LockHeader hdr;
  hdr.op = LockOp::kRelease;
  hdr.lock_id = lock;
  hdr.mode = mode;
  hdr.priority = priority;
  hdr.txn_id = txn;
  hdr.client_node = node_;
  hdr.timestamp = now;
  hdr.aux = release_nonce_++;  // Per-instance nonce (dedup filter key).
  machine_.Send(MakeLockPacket(node_, target, hdr));
}

void NetLockSession::Cancel(LockId lock, LockMode mode, TxnId txn) {
  const auto it = pending_.find(std::make_pair(lock, txn));
  if (it != pending_.end()) {
    if (trace_->Sampled(lock, txn)) {
      trace_->AsyncEnd(TraceTrack::kClient, "lock_request",
                       machine_.net().sim().now(),
                       TraceLog::RequestId(lock, txn));
    }
    pending_.erase(it);  // Withdrawn: the callback never fires.
  }
  Invalidate(lock, txn);
  LockHeader hdr;
  hdr.op = LockOp::kCancel;
  hdr.lock_id = lock;
  hdr.mode = mode;
  hdr.txn_id = txn;
  hdr.client_node = node_;
  hdr.timestamp = machine_.net().sim().now();
  machine_.Send(MakeLockPacket(node_, RouteFor(lock), hdr));
}

void NetLockSession::Invalidate(LockId lock, TxnId txn) {
  const auto pair = std::make_pair(lock, txn);
  if (!invalidated_.insert(pair).second) return;
  invalidated_fifo_.push_back(pair);
  // Bounded: old entries matter only while a pre-abort grant could still be
  // in flight, which is bounded by network delay, not by run length.
  while (invalidated_fifo_.size() > 1024) {
    invalidated_.erase(invalidated_fifo_.front());
    invalidated_fifo_.pop_front();
  }
}

bool NetLockSession::Invalidated(LockId lock, TxnId txn) const {
  return invalidated_.count(std::make_pair(lock, txn)) != 0;
}

void NetLockSession::SendAcquire(LockId lock, TxnId txn,
                                 const Pending& pending) {
  LockHeader hdr;
  hdr.op = LockOp::kAcquire;
  if (!config_.home_servers.empty()) hdr.flags = kFlagServerOwned;
  hdr.lock_id = lock;
  hdr.mode = pending.mode;
  hdr.priority = pending.priority;
  hdr.tenant = config_.tenant;
  hdr.txn_id = txn;
  hdr.client_node = node_;
  hdr.timestamp = pending.issued_at;
  machine_.Send(MakeLockPacket(node_, RouteFor(lock), hdr));
}

void NetLockSession::ArmRetry(Pending& pending) {
  Simulator& sim = machine_.net().sim();
  pending.retry_at = sim.now() + config_.retry_timeout;
  pending.retry_seq = sim.ReserveSeq();
  if (retry_armed_) return;
  retry_armed_ = true;
  const std::uint64_t seq = pending.retry_seq;
  sim.ScheduleReserved(pending.retry_at, seq,
                       [this, seq]() { OnRetryTimer(seq); });
}

void NetLockSession::OnRetryTimer(std::uint64_t seq) {
  retry_armed_ = false;
  auto fired = pending_.end();
  const Pending* next = nullptr;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    const Pending& p = it->second;
    if (p.retry_seq == seq) {
      fired = it;
    } else if (p.retry_seq != kNoRetry &&
               (next == nullptr ||
                std::tie(p.retry_at, p.retry_seq) <
                    std::tie(next->retry_at, next->retry_seq))) {
      next = &p;
    }
  }
  // Re-arm before the callbacks below: a timeout callback may re-enter
  // Acquire, whose later deadline must find the session armed.
  if (next != nullptr) {
    retry_armed_ = true;
    const std::uint64_t next_seq = next->retry_seq;
    machine_.net().sim().ScheduleReserved(
        next->retry_at, next_seq,
        [this, next_seq]() { OnRetryTimer(next_seq); });
  }
  if (fired == pending_.end()) return;
  const LockId lock = fired->first.first;
  const TxnId txn = fired->first.second;
  Pending& pending = fired->second;
  if (pending.attempts >= config_.max_retries) {
    AcquireCallback cb = std::move(pending.cb);
    pending_.erase(fired);
    if (trace_->Sampled(lock, txn)) {
      const SimTime now = machine_.net().sim().now();
      const std::uint64_t id = TraceLog::RequestId(lock, txn);
      trace_->Instant(TraceTrack::kClient, "client.timeout", now, id);
      trace_->AsyncEnd(TraceTrack::kClient, "lock_request", now, id);
    }
    cb(AcquireResult::kTimeout);
    return;
  }
  ++pending.attempts;
  ++retransmits_;
  if (trace_->Sampled(lock, txn)) {
    trace_->Instant(TraceTrack::kClient, "client.retransmit",
                    machine_.net().sim().now(),
                    TraceLog::RequestId(lock, txn),
                    {"attempt", static_cast<std::uint64_t>(pending.attempts)});
  }
  SendAcquire(lock, txn, pending);
  ArmRetry(pending);
}

void NetLockSession::OnPacket(const Packet& pkt) {
  const std::optional<LockHeader> hdr = LockHeader::Parse(pkt);
  if (!hdr) return;
  if (hdr->op == LockOp::kGrant || hdr->op == LockOp::kData) {
    // Drop network-duplicated grant copies first. The second copy of an
    // already-consumed grant would otherwise take the unsolicited-grant
    // path below and ghost-release a queue entry that was never double-
    // created — blind-popping some other waiter and handing the lock to
    // two holders at once.
    const std::uint64_t fp = GrantFingerprint(*hdr, pkt.src);
    std::uint64_t& reg =
        grant_filter_[static_cast<std::size_t>(fp % kGrantFilterSlots)];
    if (reg == fp) return;
    reg = fp;  // Collisions just evict: the filter is best-effort.
  }
  const auto it = pending_.find(std::make_pair(hdr->lock_id, hdr->txn_id));
  if (hdr->op == LockOp::kAbort) {
    // A deadlock policy refused (no-wait/wait-die) or revoked (wound) this
    // transaction's entry. Either way the entry is gone server-side.
    const auto reason = static_cast<AbortReason>(hdr->aux);
    if (it != pending_.end()) {
      // Still waiting: resolve the acquire as aborted. Invalidate so a
      // grant racing the abort (from a retransmit-created second entry)
      // does not ghost-release some other waiter's slot.
      Invalidate(hdr->lock_id, hdr->txn_id);
      AcquireCallback cb = std::move(it->second.cb);
      if (trace_->Sampled(hdr->lock_id, hdr->txn_id)) {
        const SimTime now = machine_.net().sim().now();
        const std::uint64_t id =
            TraceLog::RequestId(hdr->lock_id, hdr->txn_id);
        trace_->Instant(TraceTrack::kClient, "client.aborted", now, id);
        trace_->AsyncEnd(TraceTrack::kClient, "lock_request", now, id);
      }
      pending_.erase(it);
      cb(AcquireResult::kAborted);
    } else if (reason == AbortReason::kWound) {
      // The grant was already consumed: a *held* lock was wounded away.
      // The holder must treat it as lost and must not release it.
      Invalidate(hdr->lock_id, hdr->txn_id);
      grant_source_.erase(std::make_pair(hdr->lock_id, hdr->txn_id));
      if (wound_observer_) wound_observer_(hdr->lock_id, hdr->txn_id);
    }
    // Abort for an unknown, non-wound pair: stale duplicate; drop.
    return;
  }
  if (it == pending_.end()) {
    if (hdr->op == LockOp::kGrant || hdr->op == LockOp::kData) {
      if (Invalidated(hdr->lock_id, hdr->txn_id)) {
        // This grant's queue entry was already removed by a cancel/wound;
        // ghost-releasing it would pop a different waiter's entry.
        return;
      }
      // Unsolicited grant: a duplicate from a retransmitted acquire, or one
      // that arrived after this request timed out. Release it immediately
      // so the queue slot is reclaimed at wire speed; leaving it to lease
      // expiry would stall the lock for a full lease per stale entry.
      // Route the release straight back to the sender (the grantor).
      LockHeader release;
      release.op = LockOp::kRelease;
      release.lock_id = hdr->lock_id;
      release.mode = hdr->mode;
      release.priority = hdr->priority;
      release.txn_id = hdr->txn_id;
      release.client_node = node_;
      // Fresh nonce: this ghost release must NOT be deduplicated against
      // the transaction's real release — it pops a distinct queue entry.
      release.aux = release_nonce_++;
      machine_.Send(MakeLockPacket(node_, pkt.src, release));
    }
    return;
  }
  if (hdr->op == LockOp::kGrant || hdr->op == LockOp::kData) {
    // kData is the one-RTT combined grant+item reply (§4.1). Remember the
    // grantor so the release goes back to it (relevant across failover).
    // One-RTT grants come via the database server, but lock state lives in
    // whatever switch currently serves us: source stays kInvalidNode then
    // and the release falls back to switch_node. The arrival time is
    // recorded for both — it anchors the lease discipline in Release().
    GrantInfo info;
    if (hdr->op == LockOp::kGrant) info.source = pkt.src;
    info.granted_at = machine_.net().sim().now();
    info.priority = hdr->priority;
    grant_source_[std::make_pair(hdr->lock_id, hdr->txn_id)] = info;
    if (trace_->Sampled(hdr->lock_id, hdr->txn_id)) {
      const SimTime now = machine_.net().sim().now();
      const std::uint64_t id =
          TraceLog::RequestId(hdr->lock_id, hdr->txn_id);
      trace_->Complete(TraceTrack::kClient, "client.acquire_rtt",
                       it->second.issued_at, now, id,
                       {"attempts",
                        static_cast<std::uint64_t>(it->second.attempts)});
      trace_->AsyncEnd(TraceTrack::kClient, "lock_request", now, id);
    }
    AcquireCallback cb = std::move(it->second.cb);
    pending_.erase(it);
    cb(AcquireResult::kGranted);
    return;
  }
  if (hdr->op == LockOp::kReject) {
    // Quota throttling: back off and retransmit, preserving the single-
    // callback contract.
    Pending& pending = it->second;
    if (pending.attempts >= config_.max_retries) {
      AcquireCallback cb = std::move(pending.cb);
      const LockId lock = hdr->lock_id;
      const TxnId txn = hdr->txn_id;
      if (trace_->Sampled(lock, txn)) {
        const SimTime now = machine_.net().sim().now();
        const std::uint64_t id = TraceLog::RequestId(lock, txn);
        trace_->Instant(TraceTrack::kClient, "client.rejected", now, id);
        trace_->AsyncEnd(TraceTrack::kClient, "lock_request", now, id);
      }
      pending_.erase(it);
      cb(AcquireResult::kRejected);
      return;
    }
    ++pending.attempts;
    pending.epoch = next_epoch_++;
    pending.retry_seq = kNoRetry;  // The backoff re-arms it.
    const std::uint64_t epoch = pending.epoch;
    const LockId lock = hdr->lock_id;
    const TxnId txn = hdr->txn_id;
    machine_.net().sim().Schedule(
        kRejectBackoff, [this, lock, txn, epoch]() {
          const auto it2 = pending_.find(std::make_pair(lock, txn));
          if (it2 == pending_.end() || it2->second.epoch != epoch) return;
          SendAcquire(lock, txn, it2->second);
          ArmRetry(it2->second);
        });
  }
}

}  // namespace netlock
