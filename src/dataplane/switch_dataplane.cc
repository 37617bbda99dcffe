#include "dataplane/switch_dataplane.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

namespace {
// Register sizes fixed when the P4 program is compiled.
constexpr std::uint16_t kMaxTenants = 64;            ///< Quota-table cells.
constexpr std::uint32_t kReleaseFilterSlots = 4096;  ///< Dedup-filter cells.
}  // namespace

// Overflow protocol (paper Section 4.3, "Handling overflowed requests"),
// as implemented here. Links are FIFO, which the protocol exploits:
//
//   1. An acquire that finds q1[i] full (or already overflowing) is
//      forwarded to the home server marked kFlagBufferOnly; the server only
//      buffers it in q2[i]. The switch counts these in fwd_since_notify.
//   2. Grants/dequeues happen only from q1[i]. When a release empties
//      q1[i] while overflowing, the switch sends kQueueEmpty(free=R) and
//      zeroes fwd_since_notify.
//   3. The server pushes min(R, |q2|) buffered requests back (kFlagPushed),
//      then replies kSyncState(aux = remaining |q2|).
//   4. On kSyncState the switch ends the episode only if remaining == 0 AND
//      fwd_since_notify == 0 AND q1 is not full. A nonzero fwd_since_notify
//      means buffer-only requests raced past the server's reply and are
//      sitting (or about to sit) in q2; ending the episode then would let
//      new arrivals enqueue directly into q1 ahead of them, breaking the
//      single-queue FIFO equivalence — and could strand them forever. If
//      q1 is empty at that point the switch immediately re-notifies
//      (step 2); otherwise the next emptying release re-notifies.
//
// This yields the paper's stated invariant: while both q1 and q2 hold
// requests, grants pop only from q1 and new requests append only to q2, so
// the two behave exactly as one queue.

LockSwitch::LockSwitch(Network& net, LockSwitchConfig config)
    : net_(net),
      config_(config),
      pipeline_(net.sim().context().metrics(), config.num_stages),
      trace_(&net.sim().context().trace()),
      trace_pid_(net.sim().context().trace().current_pid()),
      table_(config.max_locks, config.queue_capacity) {
  NETLOCK_CHECK(config_.num_priorities >= 1);
  NETLOCK_CHECK(config_.num_priorities <= config_.num_stages - 4);
  NETLOCK_CHECK(config_.num_priorities <= kMaxPriorities);
  MetricsRegistry& reg = net_.sim().context().metrics();
  metrics_.granted = &reg.Counter("dataplane.acquires_granted");
  metrics_.queued = &reg.Counter("dataplane.acquires_queued");
  metrics_.rejected = &reg.Counter("dataplane.acquires_rejected");
  metrics_.releases = &reg.Counter("dataplane.releases");
  metrics_.stale_releases = &reg.Counter("dataplane.stale_releases");
  metrics_.overflow_episodes = &reg.Counter("dataplane.overflow_episodes");
  metrics_.q1_to_q2_forwards = &reg.Counter("dataplane.q1_to_q2_forwards");
  metrics_.sync_state_rtts = &reg.Counter("dataplane.sync_state_rtts");
  metrics_.forwarded_unowned = &reg.Counter("dataplane.forwarded_unowned");
  metrics_.pushes_accepted = &reg.Counter("dataplane.pushes_accepted");
  metrics_.duplicate_releases = &reg.Counter("dataplane.duplicate_releases");
  metrics_.mismatched_releases =
      &reg.Counter("dataplane.mismatched_releases");
  node_ = net_.AddNode([this](const Packet& pkt) { HandlePacket(pkt); });
  quota_ = std::make_unique<TenantQuota>(pipeline_, /*stage=*/0, kMaxTenants,
                                         QuotaMode::kMeter);
  // Stage 0, before the boundary registers: a release pass consults the
  // filter first, so a retransmitted copy never reaches the queue RMW.
  release_filter_ = std::make_unique<RegisterArray<std::uint64_t>>(
      pipeline_, /*stage=*/0, kReleaseFilterSlots);
  if (config_.num_priorities == 1) {
    bounds_ = std::make_unique<RegisterArray<LockBounds>>(
        pipeline_, /*stage=*/0, config_.max_locks);
    meta_ = std::make_unique<RegisterArray<LockMeta>>(pipeline_, /*stage=*/1,
                                                      config_.max_locks);
    queue_ = std::make_unique<SharedQueue>(pipeline_, /*first_stage=*/2,
                                           config_.queue_capacity,
                                           config_.array_size);
  } else {
    // Priority layout: aggregate decision register at stage 1, one queue-
    // metadata register per class in stages 2..1+P (the paper's "one queue
    // in each stage for one priority"), slots after them.
    agg_ = std::make_unique<RegisterArray<AggState>>(pipeline_, /*stage=*/1,
                                                     config_.max_locks);
    for (int p = 0; p < config_.num_priorities; ++p) {
      prio_bounds_.push_back(std::make_unique<RegisterArray<LockBounds>>(
          pipeline_, /*stage=*/0, config_.max_locks));
      prio_meta_.push_back(std::make_unique<RegisterArray<PrioMeta>>(
          pipeline_, /*stage=*/2 + p, config_.max_locks));
    }
    queue_ = std::make_unique<SharedQueue>(
        pipeline_, /*first_stage=*/2 + config_.num_priorities,
        config_.queue_capacity, config_.array_size);
  }
}

bool LockSwitch::InstallLock(LockId lock, NodeId home_server,
                             std::uint32_t slots, bool suspended) {
  NETLOCK_CHECK(slots >= 1);
  NETLOCK_CHECK(!suspended || config_.num_priorities == 1);
  // Split across priority classes, at least one slot each (one class gets
  // exactly `slots`). The remainder is spread over the first (highest-
  // priority) classes so the split sums to max(slots, p).
  const std::uint32_t p = config_.num_priorities;
  const std::uint32_t total = std::max(slots, p);
  PerPriority<std::uint32_t> split;
  for (std::uint32_t i = 0; i < p; ++i) {
    split.push_back(total / p + (i < total % p ? 1 : 0));
  }
  const SwitchLockEntry* entry = table_.Install(lock, home_server, split);
  if (entry == nullptr) return false;

  if (config_.num_priorities == 1) {
    const LockBounds& bounds = entry->regions[0];
    bounds_->ControlWrite(entry->meta_index, bounds);
    LockMeta meta;
    meta.head = bounds.left;
    meta.tail = bounds.left;
    meta.suspended = suspended;
    meta_->ControlWrite(entry->meta_index, meta);
  } else {
    agg_->ControlWrite(entry->meta_index, AggState{});
    for (int p = 0; p < config_.num_priorities; ++p) {
      const LockBounds& bounds = entry->regions[p];
      // The PrioMeta mode bitmask covers one 64-bit register.
      NETLOCK_CHECK(bounds.size() <= 64);
      prio_bounds_[p]->ControlWrite(entry->meta_index, bounds);
      PrioMeta meta;
      meta.head = bounds.left;
      meta.tail = bounds.left;
      prio_meta_[p]->ControlWrite(entry->meta_index, meta);
    }
  }
  return true;
}

void LockSwitch::PauseLock(LockId lock, bool paused) {
  NETLOCK_CHECK(table_.Find(lock) != nullptr);
  paused_[lock] = paused;
}

bool LockSwitch::QueueEmpty(LockId lock) const {
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  if (config_.num_priorities == 1) {
    return meta_->ControlRead(entry->meta_index).count == 0;
  }
  const AggState& agg = agg_->ControlRead(entry->meta_index);
  return agg.holders == 0 && agg.waiting_total == 0;
}

void LockSwitch::RemoveLock(LockId lock) {
  NETLOCK_CHECK(QueueEmpty(lock));
  table_.Remove(lock);
  paused_.erase(lock);
}

void LockSwitch::Fail() { failed_ = true; }

void LockSwitch::ConfigureChainHead(NodeId tail) {
  NETLOCK_CHECK(tail != kInvalidNode);
  NETLOCK_CHECK(config_.num_priorities == 1);  // Chain: default path only.
  chain_next_ = tail;
  suppress_emissions_ = true;
  src_override_ = kInvalidNode;
}

void LockSwitch::ConfigureChainTail(NodeId head_src) {
  NETLOCK_CHECK(head_src != kInvalidNode);
  src_override_ = head_src;
  chain_next_ = kInvalidNode;
  suppress_emissions_ = false;
}

void LockSwitch::PromoteStandalone() {
  chain_next_ = kInvalidNode;
  src_override_ = kInvalidNode;
  suppress_emissions_ = false;
}

void LockSwitch::ChainForward(LockHeader hdr, std::uint8_t extra_flags) {
  NETLOCK_CHECK(chain_next_ != kInvalidNode);
  hdr.flags |= extra_flags;
  net_.Send(MakeLockPacket(node_, chain_next_, hdr));
}

void LockSwitch::Restart() {
  failed_ = false;
  table_.Clear();
  queue_->ControlClear();
  for (std::uint32_t i = 0; i < kReleaseFilterSlots; ++i) {
    release_filter_->ControlWrite(i, 0);
  }
  for (std::uint32_t i = 0; i < config_.max_locks; ++i) {
    if (config_.num_priorities == 1) {
      meta_->ControlWrite(i, LockMeta{});
      bounds_->ControlWrite(i, LockBounds{});
    } else {
      agg_->ControlWrite(i, AggState{});
      for (int p = 0; p < config_.num_priorities; ++p) {
        prio_bounds_[p]->ControlWrite(i, LockBounds{});
        prio_meta_[p]->ControlWrite(i, PrioMeta{});
      }
    }
  }
  paused_.clear();
}

void LockSwitch::HandlePacket(const Packet& pkt) {
  if (failed_) {
    ++stats_.dropped_while_failed;
    return;
  }
  TraceLog::PidScope pid_scope(*trace_, trace_pid_);
  const std::optional<LockHeader> hdr = LockHeader::Parse(pkt);
  if (!hdr) return;  // Non-lock traffic: forwarded by the regular pipeline.
  // Chain tail: the head's quota already rejected this acquire; nothing
  // was enqueued anywhere — just emit the rejection.
  if ((hdr->flags & kFlagQuotaRejected) != 0 &&
      hdr->op == LockOp::kAcquire) {
    EmitReject(*hdr);
    return;
  }
  switch (hdr->op) {
    case LockOp::kAcquire:
      HandleAcquire(*hdr, /*pushed=*/false);
      break;
    case LockOp::kPush:
      HandleAcquire(*hdr, /*pushed=*/true);
      if (chain_next_ != kInvalidNode) ChainForward(*hdr, 0);
      break;
    case LockOp::kRelease:
      // A dedup-filter hit means this packet is a network-retransmitted
      // copy: it was never applied, so it must not replicate down the chain
      // either (the tail's filter state would diverge from the head's).
      if (HandleRelease(*hdr, /*lease_forced=*/false) &&
          chain_next_ != kInvalidNode) {
        ChainForward(*hdr, 0);
      }
      break;
    case LockOp::kSyncState:
      HandleResume(*hdr);
      if (chain_next_ != kInvalidNode) ChainForward(*hdr, 0);
      break;
    case LockOp::kCancel:
      // Deadlock-policy cancel. The policies run with server-resident
      // locks (the switch queue has no mid-queue removal primitive), so
      // route to the home server like any other server-owned op; for a
      // switch-resident lock the server-side removal is a no-op and the
      // entry falls to the lease sweep.
      SendToServer(*hdr, RouteFor(hdr->lock_id), kFlagServerOwned);
      break;
    default:
      break;  // kGrant/kReject/kQueueEmpty are never addressed to the switch.
  }
}

void LockSwitch::HandleAcquire(const LockHeader& hdr, bool pushed) {
  PacketPass pass = pipeline_.BeginPass();

  // Stage 0: tenant quota (client requests only; pushed requests were
  // admitted when they first arrived, and chained ops at the head).
  const bool pre_admitted = pushed || (hdr.flags & kFlagChained) != 0;
  if (!pre_admitted && !quota_->Admit(pass, hdr.tenant, net_.sim().now())) {
    // A chain head's emissions are suppressed: the tail emits the
    // rejection (uniform emission point).
    EmitReject(hdr);
    if (chain_next_ != kInvalidNode) ChainForward(hdr, kFlagQuotaRejected);
    return;
  }
  const bool replicate = !pushed && chain_next_ != kInvalidNode;
  const SwitchLockEntry* entry = table_.Find(hdr.lock_id);
  if (entry == nullptr) {
    // Algorithm 1 line 12: not our lock; the server owns it outright.
    if (replicate) ChainForward(hdr, kFlagChained);
    SendToServer(hdr, RouteFor(hdr.lock_id), kFlagServerOwned);
    ++stats_.forwarded_unowned;
    metrics_.forwarded_unowned->Inc();
    if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
      trace_->Instant(TraceTrack::kPipeline, "pipeline.forward_unowned",
                      net_.sim().now(),
                      TraceLog::RequestId(hdr.lock_id, hdr.txn_id));
    }
    return;
  }
  const auto paused_it = paused_.find(hdr.lock_id);
  if (!pushed && paused_it != paused_.end() && paused_it->second) {
    // Lock being migrated: buffer at the server to preserve order (§4.3).
    if (queue_observer_ && config_.num_priorities == 1) {
      queue_observer_(hdr.lock_id, hdr.txn_id, hdr.mode,
                      /*overflowed=*/true);
    }
    if (replicate) ChainForward(hdr, kFlagChained);
    ForwardBufferOnly(hdr, entry->home_server);
    return;
  }
  if (config_.num_priorities > 1) {
    AcquirePrio(hdr, *entry, pass);
  } else {
    AcquireDefault(hdr, pushed, *entry, pass);
  }
}

void LockSwitch::AcquireDefault(const LockHeader& hdr, bool pushed,
                                const SwitchLockEntry& entry,
                                PacketPass& pass) {
  // Stage 0: region boundaries; stage 1: queue metadata RMW.
  const LockBounds bounds = bounds_->Read(pass, entry.meta_index);
  struct Outcome {
    AcquireDecision::Kind kind;
    std::uint32_t slot_index = 0;
  };
  bool episode_start = false;  // q1 full for the first time this episode.
  const Outcome outcome = meta_->ReadModifyWrite(
      pass, entry.meta_index, [&](LockMeta& m) -> Outcome {
        if (!pushed) ++m.req_count;  // r_i counter (pushes counted once).
        // Chain tail: follow the head's overflow decision so the replicas'
        // queue contents stay identical (the head may lag an overflow
        // episode behind the tail after a tail-side wedge re-arm).
        const bool chained = (hdr.flags & kFlagChained) != 0;
        const bool must_overflow =
            chained ? (hdr.flags & kFlagOverflowed) != 0
                    : (m.overflow || m.count == bounds.size());
        if (!pushed && must_overflow) {
          episode_start = !m.overflow;
          m.overflow = true;
          ++m.fwd_since_notify;
          return {AcquireDecision::Kind::kForwardOverflow, 0};
        }
        if (pushed && m.count == bounds.size()) {
          // A push arriving at a full q1: under an adversarial network a
          // duplicated kQueueEmpty notify can make the server push more
          // entries than there are free slots, or direct acquires can race
          // in ahead of the pushes. Bounce it back to q2 instead of
          // corrupting the ring (order may bend; correctness holds).
          episode_start = !m.overflow;
          m.overflow = true;
          ++m.fwd_since_notify;
          return {AcquireDecision::Kind::kForwardOverflow, 0};
        }
        NETLOCK_CHECK(m.count < bounds.size());
        const std::uint32_t slot_index = m.tail;
        m.tail = SharedQueue::Next(m.tail, bounds);
        ++m.count;
        m.max_count = std::max(m.max_count, m.count);  // c_i counter.
        const bool was_empty = m.count == 1;
        const bool all_shared = m.xcnt == 0;
        if (hdr.mode == LockMode::kExclusive) ++m.xcnt;
        // Algorithm 2 lines 3-5 (suspended locks queue without granting).
        const bool grant =
            !m.suspended &&
            (was_empty || (all_shared && hdr.mode == LockMode::kShared));
        return {grant ? AcquireDecision::Kind::kEnqueueGrant
                      : AcquireDecision::Kind::kEnqueueWait,
                slot_index};
      });

  if (!pushed && queue_observer_) {
    queue_observer_(
        hdr.lock_id, hdr.txn_id, hdr.mode,
        outcome.kind == AcquireDecision::Kind::kForwardOverflow);
  }
  const bool replicate = !pushed && chain_next_ != kInvalidNode;
  const SimTime now = net_.sim().now();
  if (outcome.kind == AcquireDecision::Kind::kForwardOverflow) {
    if (episode_start) metrics_.overflow_episodes->Inc();
    if (replicate) ChainForward(hdr, kFlagChained | kFlagOverflowed);
    LockHeader fwd = hdr;
    if (pushed) {
      // A bounced push re-enters q2 as a fresh buffer-only request.
      fwd.op = LockOp::kAcquire;
      fwd.flags &= static_cast<std::uint8_t>(~kFlagPushed);
    }
    ForwardBufferOnly(fwd, entry.home_server);
    if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
      trace_->Instant(TraceTrack::kQueue, "queue.overflow_forward", now,
                      TraceLog::RequestId(hdr.lock_id, hdr.txn_id));
    }
    return;
  }
  if (replicate) ChainForward(hdr, kFlagChained);

  // Stage 2+: write the request into its shared-queue slot.
  queue_->Write(pass, outcome.slot_index, SlotFromHeader(hdr, now));

  if (pushed) {
    ++stats_.pushes_accepted;
    metrics_.pushes_accepted->Inc();
  }
  const bool granted = outcome.kind == AcquireDecision::Kind::kEnqueueGrant;
  if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
    const std::uint64_t id = TraceLog::RequestId(hdr.lock_id, hdr.txn_id);
    trace_->Complete(TraceTrack::kPipeline, "pipeline.acquire", now, now,
                     id, {"passes", pass.pass_index() + 1},
                     {"granted", granted ? 1u : 0u});
    trace_->Instant(TraceTrack::kQueue, "queue.enqueue", now, id,
                    {"slot", outcome.slot_index});
  }
  if (granted) {
    SendGrant(hdr);
  } else {
    metrics_.queued->Inc();
  }
}

bool LockSwitch::HandleRelease(const LockHeader& hdr, bool lease_forced) {
  const SwitchLockEntry* entry = table_.Find(hdr.lock_id);
  if (entry == nullptr) {
    SendToServer(hdr, RouteFor(hdr.lock_id), kFlagServerOwned);
    return true;
  }
  PacketPass pass = pipeline_.BeginPass();
  // Stage 0 first access: drop retransmitted copies before they can
  // blind-pop a queue entry. Lease-forced releases are control-plane
  // internal and never duplicated; they skip the filter so that repeated
  // forced releases of re-granted entries are not misdropped.
  if (!lease_forced && DuplicateRelease(hdr, pass)) return false;
  if (config_.num_priorities > 1) {
    ReleasePrio(hdr, lease_forced, *entry, pass);
  } else {
    ReleaseDefault(hdr, lease_forced, *entry, pass);
  }
  return true;
}

void LockSwitch::ReleaseDefault(const LockHeader& hdr, bool lease_forced,
                                const SwitchLockEntry& entry,
                                PacketPass& pass) {
  const LockBounds bounds = bounds_->Read(pass, entry.meta_index);

  // Validation pass (Algorithm 2 line 8, hoisted): peek at the head entry
  // BEFORE popping. Releases carry no queue position, so the pop is a blind
  // head-pop; under an adversarial network a release can outlive its entry
  // (the lease sweep force-released it, or a retransmission-created
  // duplicate entry was already reclaimed) and the blind pop would then
  // dequeue some other waiter's entry — double-granting the next requester
  // while the popped waiter still believes it is queued. The head slot
  // lives in a later stage than the queue metadata, so the pop happens on
  // a resubmit — the same dequeue-then-inspect recirculation the paper
  // needs for consecutive shared grants.
  const LockMeta peek = meta_->Read(pass, entry.meta_index);
  // Suspended locks have granted nothing: a *client* release reaching
  // them is a stale pre-failure message and must not dequeue a waiter. A
  // lease-forced release, however, targets the (expired) queue head itself
  // and must still dequeue it, or the sweep could never reclaim entries on
  // a suspended lock.
  if (peek.count == 0 || (peek.suspended && !lease_forced)) {
    // A release for an entry the switch no longer has (post-restart or
    // post-lease-expiry duplicate). Safe to drop: leases already reclaimed
    // the slot.
    DropRelease(hdr, /*mismatched=*/false);
    return;
  }
  const QueueSlot head_peek = queue_->Read(pass, peek.head);
  // An exclusive head is popped only by its own holder's release; a shared
  // head is popped by any shared release (shared releases are commutative —
  // holders release in arbitrary order but each pop retires one granted
  // shared entry). A mode or transaction mismatch means the releaser's own
  // entry is already gone: drop it instead of corrupting the ring.
  // Lease-forced releases are built from the head itself and always match.
  if (!lease_forced &&
      (head_peek.mode != hdr.mode ||
       (hdr.mode == LockMode::kExclusive &&
        head_peek.txn_id != hdr.txn_id))) {
    DropRelease(hdr, /*mismatched=*/true);
    return;
  }

  // Pop pass. Within one simulated packet the resubmit is atomic (as is
  // the paper's grant-chain recirculation), so the validated head is still
  // the head here.
  pipeline_.Resubmit(pass);
  struct DequeueResult {
    bool suspended = false;
    std::uint32_t new_head = 0;
    std::uint32_t remaining = 0;
    bool notify_server = false;
  };
  const DequeueResult deq = meta_->ReadModifyWrite(
      pass, entry.meta_index, [&](LockMeta& m) -> DequeueResult {
        DequeueResult r;
        r.suspended = m.suspended;
        m.head = SharedQueue::Next(m.head, bounds);
        --m.count;
        if (hdr.mode == LockMode::kExclusive) {
          NETLOCK_CHECK(m.xcnt > 0);
          --m.xcnt;
        }
        r.new_head = m.head;
        r.remaining = m.count;
        if (m.count == 0 && m.overflow) {
          r.notify_server = true;
          m.fwd_since_notify = 0;
          m.last_notify = net_.sim().now();
        }
        return r;
      });

  ++stats_.releases;
  metrics_.releases->Inc();
  if (deq.notify_server) {
    ++stats_.queue_empty_notifies;
    SendQueueEmptyNotify(hdr.lock_id, entry.home_server, bounds.size());
  }
  // A suspended lock dequeues (lease sweep) but never grants: the cascade
  // runs when Activate() lifts the suspension.
  if (deq.remaining > 0 && !deq.suspended) {
    GrantCascade(hdr.lock_id, bounds, deq.new_head, deq.remaining, hdr.mode,
                 pass);
  }
  // The pass count covers the whole resubmit chain.
  if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
    const SimTime now = net_.sim().now();
    trace_->Complete(TraceTrack::kPipeline, "pipeline.release", now, now,
                     TraceLog::RequestId(hdr.lock_id, hdr.txn_id),
                     {"passes", pass.pass_index() + 1});
  }
}

void LockSwitch::GrantCascade(LockId lock, const LockBounds& bounds,
                              std::uint32_t head, std::uint32_t count,
                              LockMode released, PacketPass& pass) {
  // Resubmit to examine the new head (Algorithm 2 lines 12-27). Grants
  // re-stamp the slot's timestamp (a read-modify-write, still one access):
  // the lease measures *holding* time from grant, not queueing time, so a
  // request that waited long and was just granted is not immediately
  // reclaimed by the lease sweep.
  pipeline_.Resubmit(pass);
  const SimTime now = net_.sim().now();
  // Head case: granted iff it is exclusive (S->E / E->E) or the released
  // lock was exclusive (E->S); only then re-stamp.
  const QueueSlot first =
      queue_->ReadModifyWrite(pass, head, [&](QueueSlot& slot) {
        QueueSlot copy = slot;
        if (slot.mode == LockMode::kExclusive ||
            released == LockMode::kExclusive) {
          slot.timestamp = now;
        }
        return copy;
      });
  // Shared -> Shared: the head was already granted when it entered the
  // queue (or by an earlier cascade); nothing to do.
  if (first.mode == LockMode::kShared && released == LockMode::kShared) {
    return;
  }
  // Shared -> Exclusive (the last shared holder left; had others remained
  // the head would still be shared) and Exclusive -> Exclusive grant the
  // exclusive head and stop.
  GrantQueued(lock, first);
  if (first.mode == LockMode::kExclusive) return;
  // Exclusive -> Shared: grant consecutive shared requests, one resubmit
  // per grant, until an exclusive request or the end of the queue.
  std::uint32_t pointer = SharedQueue::Next(head, bounds);
  for (std::uint32_t remaining = count - 1; remaining > 0; --remaining) {
    pipeline_.Resubmit(pass);
    const QueueSlot next =
        queue_->ReadModifyWrite(pass, pointer, [&](QueueSlot& slot) {
          QueueSlot copy = slot;
          if (slot.mode == LockMode::kShared) slot.timestamp = now;
          return copy;
        });
    if (next.mode == LockMode::kExclusive) break;
    GrantQueued(lock, next);
    pointer = SharedQueue::Next(pointer, bounds);
  }
}

bool LockSwitch::DuplicateRelease(const LockHeader& hdr, PacketPass& pass) {
  const std::uint64_t fp = ReleaseFingerprint(hdr);
  const std::size_t idx =
      static_cast<std::size_t>(fp % release_filter_->size());
  const bool dup = release_filter_->ReadModifyWrite(
      pass, idx, [&](std::uint64_t& reg) {
        if (reg == fp) return true;
        reg = fp;  // Collisions just evict: the filter is best-effort.
        return false;
      });
  if (dup) {
    ++stats_.duplicate_releases;
    metrics_.duplicate_releases->Inc();
    if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
      trace_->Instant(TraceTrack::kPipeline, "pipeline.duplicate_release",
                      net_.sim().now(),
                      TraceLog::RequestId(hdr.lock_id, hdr.txn_id));
    }
  }
  return dup;
}

void LockSwitch::DropRelease(const LockHeader& hdr, bool mismatched) {
  if (mismatched) {
    ++stats_.mismatched_releases;
    metrics_.mismatched_releases->Inc();
  } else {
    ++stats_.stale_releases;
    metrics_.stale_releases->Inc();
  }
  if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
    trace_->Instant(TraceTrack::kPipeline,
                    mismatched ? "pipeline.mismatched_release"
                               : "pipeline.stale_release",
                    net_.sim().now(),
                    TraceLog::RequestId(hdr.lock_id, hdr.txn_id));
  }
}

void LockSwitch::HandleResume(const LockHeader& hdr) {
  metrics_.sync_state_rtts->Inc();
  const SwitchLockEntry* entry = table_.Find(hdr.lock_id);
  if (entry == nullptr) return;  // Lock migrated away meanwhile.
  PacketPass pass = pipeline_.BeginPass();
  const LockBounds bounds = bounds_->Read(pass, entry->meta_index);
  const std::uint32_t remaining_q2 = hdr.aux;

  enum class Action { kNone, kRenotify };
  const Action action = meta_->ReadModifyWrite(
      pass, entry->meta_index, [&](LockMeta& m) -> Action {
        if (!m.overflow) return Action::kNone;
        if (remaining_q2 == 0 && m.fwd_since_notify == 0 &&
            m.count < bounds.size()) {
          m.overflow = false;  // Episode over; normal mode (§4.3).
          return Action::kNone;
        }
        if (m.count == 0) {
          m.fwd_since_notify = 0;
          m.last_notify = net_.sim().now();
          return Action::kRenotify;
        }
        return Action::kNone;  // Next emptying release re-notifies.
      });
  if (action == Action::kRenotify) {
    ++stats_.queue_empty_notifies;
    SendQueueEmptyNotify(hdr.lock_id, entry->home_server, bounds.size());
  }
}

void LockSwitch::AcquirePrio(const LockHeader& hdr,
                             const SwitchLockEntry& entry, PacketPass& pass) {
  const Priority p = std::min<Priority>(
      hdr.priority, static_cast<Priority>(config_.num_priorities - 1));
  // Stage 0: this class's region boundaries.
  const LockBounds bounds = prio_bounds_[p]->Read(pass, entry.meta_index);

  // Stage 1: the aggregate register decides grant / queue / overflow in one
  // RMW. Grant rule (Section 4.4): immediately if nothing is held and
  // nothing waits; or, for a shared request, if the lock is held shared and
  // no exclusive request waits at the same or higher priority.
  enum class Outcome { kGrant, kEnqueue, kOverflow };
  const SimTime now = net_.sim().now();
  const Outcome outcome = agg_->ReadModifyWrite(
      pass, entry.meta_index, [&](AggState& a) {
        ++a.req_count;
        a.max_concurrent = std::max(
            a.max_concurrent, a.holders + a.waiting_total + 1);
        const bool free_now = a.holders == 0 && a.waiting_total == 0;
        std::uint32_t x_ahead = 0;
        for (Priority q = 0; q <= p; ++q) x_ahead += a.wait_x[q];
        const bool share_now =
            hdr.mode == LockMode::kShared && a.holders > 0 &&
            a.held_mode == LockMode::kShared && x_ahead == 0;
        if (free_now || share_now) {
          if (a.holders == 0) {
            a.held_mode = hdr.mode;
            a.held_txn = hdr.txn_id;
            a.held_since = now;
          }
          ++a.holders;
          return Outcome::kGrant;
        }
        if (a.wait_count[p] >= bounds.size()) return Outcome::kOverflow;
        ++a.wait_count[p];
        ++a.waiting_total;
        if (hdr.mode == LockMode::kExclusive) ++a.wait_x[p];
        return Outcome::kEnqueue;
      });
  if (outcome == Outcome::kGrant) {
    if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
      trace_->Complete(TraceTrack::kPipeline, "pipeline.acquire", now, now,
                       TraceLog::RequestId(hdr.lock_id, hdr.txn_id),
                       {"passes", pass.pass_index() + 1}, {"granted", 1});
    }
    SendGrant(hdr);
    return;
  }
  if (outcome == Outcome::kOverflow) {
    // Class queue full: fall back to the server path (buffer-only), which
    // keeps the request alive; priority is preserved server-side FIFO only.
    ForwardBufferOnly(hdr, entry.home_server);
    if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
      trace_->Instant(TraceTrack::kQueue, "queue.overflow_forward", now,
                      TraceLog::RequestId(hdr.lock_id, hdr.txn_id));
    }
    return;
  }
  metrics_.queued->Inc();

  // Stage 2+p: ring enqueue into this class's queue, caching the mode bit
  // so later conditional pops know the head's mode without a slot access.
  const std::uint32_t slot_index = prio_meta_[p]->ReadModifyWrite(
      pass, entry.meta_index, [&](PrioMeta& m) {
        const std::uint32_t index = m.tail;
        m.tail = SharedQueue::Next(m.tail, bounds);
        ++m.count;
        const std::uint32_t bit = index - bounds.left;
        if (hdr.mode == LockMode::kExclusive) {
          m.mode_mask |= (1ull << bit);
        } else {
          m.mode_mask &= ~(1ull << bit);
        }
        return index;
      });

  queue_->Write(pass, slot_index, SlotFromHeader(hdr, now));
  if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
    const std::uint64_t id = TraceLog::RequestId(hdr.lock_id, hdr.txn_id);
    trace_->Complete(TraceTrack::kPipeline, "pipeline.acquire", now, now,
                     id, {"passes", pass.pass_index() + 1},
                     {"granted", 0});
    trace_->Instant(TraceTrack::kQueue, "queue.enqueue", now, id,
                    {"slot", slot_index}, {"priority", p});
  }
}

void LockSwitch::ReleasePrio(const LockHeader& hdr, bool lease_forced,
                             const SwitchLockEntry& entry, PacketPass& pass) {
  enum class Action { kStale, kMismatch, kDone, kChain };
  const Action action = agg_->ReadModifyWrite(
      pass, entry.meta_index, [&](AggState& a) {
        if (a.holders == 0) return Action::kStale;
        // Stale-release validation (see ReleaseDefault): a release whose
        // mode — or, for an exclusive hold, transaction — does not match
        // the current holder is from an entry already reclaimed (lease
        // sweep) and must not decrement someone else's hold.
        if (!lease_forced &&
            (hdr.mode != a.held_mode ||
             (a.held_mode == LockMode::kExclusive &&
              hdr.txn_id != a.held_txn))) {
          return Action::kMismatch;
        }
        --a.holders;
        if (a.holders > 0) return Action::kDone;
        return a.waiting_total > 0 ? Action::kChain : Action::kDone;
      });
  if (action == Action::kStale || action == Action::kMismatch) {
    DropRelease(hdr, action == Action::kMismatch);
    return;
  }
  ++stats_.releases;
  metrics_.releases->Inc();
  if (action == Action::kChain) GrantChainPrio(entry, pass);
}

void LockSwitch::GrantChainPrio(const SwitchLockEntry& entry,
                                PacketPass& pass) {
  // One pop-and-grant per pass; the aggregate accounting for grant k is
  // applied by pass k+1's stage-1 RMW (carried resubmit metadata), and the
  // chain ends with a pass that applies the last update and pops nothing.
  // Strict priority: while batching shared grants, an exclusive head at
  // the highest non-empty class stops the batch.
  const SimTime now = net_.sim().now();
  bool first = true;
  struct Pending {
    bool valid = false;
    Priority prio = 0;
    LockMode mode = LockMode::kShared;
    TxnId txn = kInvalidTxn;
  };
  Pending prev;
  for (;;) {
    pipeline_.Resubmit(pass);
    // Stage 0: every class's boundaries (any class may pop this pass).
    LockBounds bounds[kMaxPriorities];
    for (int q = 0; q < config_.num_priorities; ++q) {
      bounds[q] = prio_bounds_[q]->Read(pass, entry.meta_index);
    }
    // Stage 1: apply the previous pass's grant; decide continuation.
    const bool proceed = agg_->ReadModifyWrite(
        pass, entry.meta_index, [&](AggState& a) {
          if (prev.valid) {
            ++a.holders;
            a.held_mode = prev.mode;
            a.held_txn = prev.txn;
            if (a.holders == 1) a.held_since = now;
            NETLOCK_CHECK(a.wait_count[prev.prio] > 0);
            --a.wait_count[prev.prio];
            --a.waiting_total;
            if (prev.mode == LockMode::kExclusive) {
              NETLOCK_CHECK(a.wait_x[prev.prio] > 0);
              --a.wait_x[prev.prio];
              return false;  // An exclusive grant ends the chain.
            }
          }
          return a.waiting_total > 0;
        });
    if (!proceed) return;
    // Stages 2..1+P: conditional pop from the first non-empty class; in
    // shared-batch mode an exclusive head there blocks further grants.
    bool popped = false;
    bool blocked = false;
    Priority pop_prio = 0;
    std::uint32_t pop_index = 0;
    LockMode pop_mode = LockMode::kShared;
    for (int q = 0; q < config_.num_priorities && !popped && !blocked;
         ++q) {
      prio_meta_[q]->ReadModifyWrite(
          pass, entry.meta_index, [&](PrioMeta& m) {
            if (m.count == 0) return 0;
            const std::uint32_t bit = m.head - bounds[q].left;
            const bool head_exclusive = (m.mode_mask >> bit) & 1ull;
            if (!first && head_exclusive) {
              blocked = true;
              return 0;
            }
            popped = true;
            pop_prio = static_cast<Priority>(q);
            pop_index = m.head;
            pop_mode = head_exclusive ? LockMode::kExclusive
                                      : LockMode::kShared;
            m.head = SharedQueue::Next(m.head, bounds[q]);
            --m.count;
            return 0;
          });
    }
    if (!popped) return;  // Blocked by an exclusive head (already applied).
    // Slot read + grant re-stamp (stage >= 2+P).
    const QueueSlot slot = queue_->ReadModifyWrite(
        pass, pop_index, [&](QueueSlot& s) {
          QueueSlot copy = s;
          s.timestamp = now;
          return copy;
        });
    NETLOCK_DCHECK(slot.mode == pop_mode);
    GrantQueued(entry.lock_id, slot, {"priority", pop_prio});
    prev = Pending{true, pop_prio, pop_mode, slot.txn_id};
    first = false;
  }
}

void LockSwitch::ClearExpired(SimTime lease, SweepScope scope) {
  // A failed switch processes nothing — the control plane's lease polling
  // keeps running, but sweeping the dead registers would cascade-grant
  // from a stale queue while the backup serves the same locks.
  if (failed_) return;
  TraceLog::PidScope pid_scope(*trace_, trace_pid_);
  const SimTime now = net_.sim().now();
  if (now < lease) return;
  const SimTime cutoff = now - lease;
  const bool do_releases = scope != SweepScope::kOverflowRearmOnly;
  const bool do_rearm = scope != SweepScope::kForcedReleasesOnly;
  if (config_.num_priorities == 1) {
    for (const LockId lock : table_.InstalledLocks()) {
      const SwitchLockEntry* entry = table_.Find(lock);
      while (do_releases) {
        const LockMeta& meta = meta_->ControlRead(entry->meta_index);
        if (meta.count == 0) break;
        const QueueSlot& head = queue_->ControlAt(meta.head);
        if (head.timestamp > cutoff) break;
        // Forced release of the expired head: reuses the data-plane release
        // path (the control plane injects the packet), which also cascades
        // grants to unblocked requests.
        const LockHeader forced =
            ForcedRelease(lock, head.mode, head.txn_id, head.client_node);
        HandleRelease(forced, /*lease_forced=*/true);
        // Chain head: the forced release must replicate like any other op.
        if (chain_next_ != kInvalidNode) ChainForward(forced, 0);
      }
      if (!do_rearm) continue;
      // Wedge recovery: if an overflow episode stalled with q1 empty — a
      // lost notify/push/resume — re-arm the handshake. Waiting a full
      // lease since the last notify guarantees no pushes are in flight
      // (they either landed long ago or were lost).
      LockMeta& meta = meta_->ControlRead(entry->meta_index);
      if (meta.overflow && meta.count == 0 &&
          meta.last_notify + lease <= now) {
        meta.fwd_since_notify = 0;
        meta.last_notify = now;
        ++stats_.queue_empty_notifies;
        SendQueueEmptyNotify(lock, entry->home_server,
                             bounds_->ControlRead(entry->meta_index).size());
      }
    }
  } else {
    for (const LockId lock : table_.InstalledLocks()) {
      const SwitchLockEntry* entry = table_.Find(lock);
      // Force-release expired holders one by one; the release path's grant
      // chain re-stamps new holders, terminating the loop. Waiting entries
      // are not expired here: when eventually granted, clients that moved
      // on release them immediately (unsolicited-grant release).
      for (int guard = 0; guard < 1 << 16; ++guard) {
        const AggState& agg = agg_->ControlRead(entry->meta_index);
        if (agg.holders == 0 || agg.held_since > cutoff) break;
        HandleRelease(
            ForcedRelease(lock, agg.held_mode, agg.held_txn, kInvalidNode),
            /*lease_forced=*/true);
      }
    }
  }
}

LockHeader LockSwitch::ForcedRelease(LockId lock, LockMode mode, TxnId txn,
                                     NodeId client) {
  LockHeader forced;
  forced.op = LockOp::kRelease;
  forced.lock_id = lock;
  forced.mode = mode;
  forced.txn_id = txn;
  forced.client_node = client;
  forced.aux = forced_release_nonce_++;
  return forced;
}

void LockSwitch::HarvestDemands(double window_sec,
                                std::vector<LockDemand>& out) {
  NETLOCK_CHECK(window_sec > 0.0);
  for (const LockId lock : table_.InstalledLocks()) {
    const SwitchLockEntry* entry = table_.Find(lock);
    if (config_.num_priorities == 1) {
      LockMeta& meta = meta_->ControlRead(entry->meta_index);
      out.push_back(LockDemand{
          lock, static_cast<double>(meta.req_count) / window_sec,
          std::max(1u, meta.max_count)});
      meta.req_count = 0;
      meta.max_count = std::max(1u, meta.count);
    } else {
      AggState& agg = agg_->ControlRead(entry->meta_index);
      out.push_back(LockDemand{
          lock, static_cast<double>(agg.req_count) / window_sec,
          std::max(1u, agg.max_concurrent)});
      agg.req_count = 0;
      agg.max_concurrent = std::max(1u, agg.holders + agg.waiting_total);
    }
  }
}

bool LockSwitch::IsSuspended(LockId lock) const {
  const SwitchLockEntry* entry = table_.Find(lock);
  if (entry == nullptr) return false;
  return meta_->ControlRead(entry->meta_index).suspended;
}

void LockSwitch::Suspend(LockId lock) {
  NETLOCK_CHECK(config_.num_priorities == 1);
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  PacketPass pass = pipeline_.BeginPass();
  meta_->ReadModifyWrite(pass, entry->meta_index, [](LockMeta& m) {
    m.suspended = true;
    return 0;
  });
}

void LockSwitch::Activate(LockId lock) {
  NETLOCK_CHECK(config_.num_priorities == 1);
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  PacketPass pass = pipeline_.BeginPass();
  const LockBounds bounds = bounds_->Read(pass, entry->meta_index);
  struct Wake {
    std::uint32_t head = 0;
    std::uint32_t count = 0;  ///< Zero: nothing to grant.
  };
  const Wake wake = meta_->ReadModifyWrite(
      pass, entry->meta_index, [&](LockMeta& m) -> Wake {
        if (!m.suspended) return {};
        m.suspended = false;
        return {m.head, m.count};
      });
  // Grant the head, and if it is shared, the whole leading shared batch:
  // the cascade an exclusive release runs.
  if (wake.count > 0) {
    GrantCascade(lock, bounds, wake.head, wake.count, LockMode::kExclusive,
                 pass);
  }
}

LockSwitch::DebugState LockSwitch::Debug(LockId lock) const {
  NETLOCK_CHECK(config_.num_priorities == 1);
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  DebugState state;
  state.meta = meta_->ControlRead(entry->meta_index);
  state.bounds = bounds_->ControlRead(entry->meta_index);
  if (state.meta.count > 0) {
    state.head = queue_->ControlAt(state.meta.head);
  }
  return state;
}

void LockSwitch::SendGrant(const LockHeader& request) {
  ++stats_.grants;
  metrics_.granted->Inc();
  if (grant_observer_) {
    grant_observer_(request.lock_id, request.txn_id, request.mode,
                    request.client_node);
  }
  LockHeader grant = request;
  grant.op = LockOp::kGrant;
  grant.aux = grant_nonce_++;  // Per-instance nonce (dedup filter key).
  if (db_route_) {
    // One-RTT mode (§4.1): mirror the grant to the database server, which
    // replies to the client with the item and the implied grant. Every
    // such fetch succeeds — the lock is already held.
    const NodeId db = db_route_(request.lock_id);
    if (db != kInvalidNode) {
      Emit(MakeLockPacket(node_, db, grant));
      return;
    }
  }
  Emit(MakeLockPacket(node_, request.client_node, grant));
}

void LockSwitch::GrantQueued(LockId lock, const QueueSlot& slot,
                             TraceArg trace_arg) {
  // `slot` is the pre-restamp copy: its timestamp is the enqueue time, so
  // the span is this waiter's full time in the shared queue.
  if (trace_->Sampled(lock, slot.txn_id)) {
    trace_->Complete(TraceTrack::kQueue, "queue.wait", slot.timestamp,
                     net_.sim().now(), TraceLog::RequestId(lock, slot.txn_id),
                     trace_arg);
  }
  SendGrant(HeaderFromSlot(LockOp::kGrant, lock, slot));
}

void LockSwitch::EmitReject(const LockHeader& request) {
  ++stats_.rejected_quota;
  metrics_.rejected->Inc();
  LockHeader reject = request;
  reject.op = LockOp::kReject;
  reject.aux = static_cast<std::uint32_t>(AcquireResult::kRejected);
  Emit(MakeLockPacket(node_, request.client_node, reject));
}

void LockSwitch::ForwardBufferOnly(const LockHeader& hdr, NodeId server) {
  SendToServer(hdr, server, kFlagBufferOnly);
  ++stats_.forwarded_overflow;
  metrics_.q1_to_q2_forwards->Inc();
}

void LockSwitch::SendToServer(LockHeader hdr, NodeId server,
                              std::uint8_t extra_flags) {
  if (server == kInvalidNode) return;  // Unroutable: drop (client retries).
  hdr.flags |= extra_flags;
  Emit(MakeLockPacket(node_, server, hdr));
}

void LockSwitch::SendQueueEmptyNotify(LockId lock, NodeId server,
                                      std::uint32_t free_slots) {
  if (server == kInvalidNode) return;
  LockHeader notify;
  notify.op = LockOp::kQueueEmpty;
  notify.lock_id = lock;
  notify.aux = free_slots;
  // Stamped so the server can discard stale or duplicated notifies: pushing
  // twice for one notify would overrun q1 (and bend FIFO order).
  notify.timestamp = net_.sim().now();
  Emit(MakeLockPacket(node_, server, notify));
}

void LockSwitch::Emit(Packet pkt) {
  if (suppress_emissions_) return;  // Chain head: the tail emits.
  if (src_override_ != kInvalidNode) {
    // Chain tail: emissions carry the head's address so releases and
    // retransmissions keep entering the chain at the head (switches
    // rewrite source addresses as a matter of course).
    pkt.src = src_override_;
  }
  net_.Send(std::move(pkt));
}

}  // namespace netlock
