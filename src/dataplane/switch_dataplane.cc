#include "dataplane/switch_dataplane.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

namespace {
// Register sizes fixed when the P4 program is compiled.
constexpr std::uint16_t kMaxTenants = 64;            ///< Quota-table cells.
constexpr std::uint32_t kReleaseFilterSlots = 4096;  ///< Dedup-filter cells.

/// Queued entries of a lock: the sum over its classes' rings.
std::uint32_t Entries(std::span<const LockMeta> lanes) {
  std::uint32_t entries = 0;
  for (const LockMeta& lane : lanes) entries += lane.ring.count;
  return entries;
}
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
  // Stage 0: each lock's per-class region boundaries; stage 1: its
  // per-class queue-metadata lanes; the shared-queue arrays after them.
  const std::size_t cells =
      std::size_t{config_.max_locks} * config_.num_priorities;
  bounds_ = std::make_unique<RegisterArray<LockBounds>>(pipeline_,
                                                        /*stage=*/0, cells);
  meta_ = std::make_unique<RegisterArray<LockMeta>>(pipeline_, /*stage=*/1,
                                                    cells);
  queue_ = std::make_unique<SharedQueue>(pipeline_, /*first_stage=*/2,
                                         config_.queue_capacity,
                                         config_.array_size);
}

bool LockSwitch::InstallLock(LockId lock, NodeId home_server,
                             std::uint32_t slots, bool suspended) {
  NETLOCK_CHECK(slots >= 1);
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

  const std::size_t row = RowOf(*entry);
  const std::span<LockMeta> lanes = meta_->ControlRow(row, p);
  for (std::uint32_t c = 0; c < p; ++c) {
    const LockBounds& bounds = entry->regions[c];
    bounds_->ControlWrite(row + c, bounds);
    lanes[c] = LockMeta{};
    lanes[c].ring.head = bounds.left;
    lanes[c].ring.tail = bounds.left;
  }
  lanes[0].suspended = suspended;
  return true;
}

void LockSwitch::PauseLock(LockId lock, bool paused) {
  SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  entry->paused = paused;
}

bool LockSwitch::QueueEmpty(LockId lock) const {
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  return Entries(meta_->ControlRow(RowOf(*entry), config_.num_priorities)) ==
         0;
}

void LockSwitch::RemoveLock(LockId lock) {
  NETLOCK_CHECK(QueueEmpty(lock));
  table_.Remove(lock);
}

void LockSwitch::Fail() { failed_ = true; }

void LockSwitch::ConfigureChainHead(NodeId tail) {
  NETLOCK_CHECK(tail != kInvalidNode);
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
  for (std::size_t i = 0; i < bounds_->size(); ++i) {
    meta_->ControlWrite(i, LockMeta{});
    bounds_->ControlWrite(i, LockBounds{});
  }
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
  if (!pushed && entry->paused) {
    // Lock being migrated: buffer at the server to preserve order (§4.3).
    if (queue_observer_) {
      queue_observer_(hdr.lock_id, hdr.txn_id, hdr.mode,
                      ClassOf(hdr.priority), /*overflowed=*/true);
    }
    if (replicate) ChainForward(hdr, kFlagChained);
    ForwardBufferOnly(hdr, entry->home_server);
    return;
  }
  Enqueue(hdr, pushed, *entry, pass);
}

void LockSwitch::Enqueue(const LockHeader& hdr, bool pushed,
                         const SwitchLockEntry& entry, PacketPass& pass) {
  const Priority cls = ClassOf(hdr.priority);
  const std::size_t row = RowOf(entry);
  // Stage 0: region boundaries; stage 1: the lock's queue-metadata row.
  const LockBounds bounds =
      bounds_->ReadRow(pass, row, config_.num_priorities)[cls];
  struct Outcome {
    AcquireDecision::Kind kind;
    std::uint32_t slot_index = 0;
  };
  bool episode_start = false;  // q1 full for the first time this episode.
  const Outcome outcome = meta_->ReadModifyWriteRow(
      pass, row, config_.num_priorities,
      [&](std::span<LockMeta> lanes) -> Outcome {
        LockMeta& m = lanes[0];
        ClassRing& ring = lanes[cls].ring;
        if (!pushed) ++m.req_count;  // r_i counter (pushes counted once).
        // Chain tail: follow the head's overflow decision so the replicas'
        // queue contents stay identical (the head may lag an overflow
        // episode behind the tail after a tail-side wedge re-arm).
        const bool chained = (hdr.flags & kFlagChained) != 0;
        const bool full = ring.count == bounds.size();
        const bool must_overflow =
            chained ? (hdr.flags & kFlagOverflowed) != 0
                    : (m.overflow || full);
        // A push arriving at a full ring: under an adversarial network a
        // duplicated kQueueEmpty notify can make the server push more
        // entries than there are free slots, or direct acquires can race
        // in ahead of the pushes. Bounce it back to q2 instead of
        // corrupting the ring (order may bend; correctness holds).
        if (pushed ? full : must_overflow) {
          episode_start = !m.overflow;
          m.overflow = true;
          ++m.fwd_since_notify;
          return {AcquireDecision::Kind::kForwardOverflow, 0};
        }
        NETLOCK_CHECK(ring.count < bounds.size());
        std::uint32_t entries = 0;
        std::uint32_t holders = 0;
        std::uint32_t x_ahead = 0;  // Exclusives at this class or higher.
        for (std::size_t c = 0; c < lanes.size(); ++c) {
          entries += lanes[c].ring.count;
          holders += lanes[c].ring.granted;
          if (c <= cls) x_ahead += lanes[c].ring.xcnt;
        }
        const std::uint32_t slot_index = ring.tail;
        ring.tail = SharedQueue::Next(ring.tail, bounds);
        ++ring.count;
        m.max_count = std::max(m.max_count, entries + 1);  // c_i counter.
        if (hdr.mode == LockMode::kExclusive) ++ring.xcnt;
        // Algorithm 2 lines 3-5 with §4.4's classes: grant if the lock has
        // no entries, or if a shared request finds it held shared and no
        // exclusive waiting at its class or a higher one (held shared, every
        // exclusive entry waits). Suspended locks queue without granting.
        const bool grant =
            !m.suspended &&
            (entries == 0 ||
             (hdr.mode == LockMode::kShared && holders > 0 &&
              !m.held_exclusive && x_ahead == 0));
        if (!grant) return {AcquireDecision::Kind::kEnqueueWait, slot_index};
        ++ring.granted;
        m.held_exclusive = hdr.mode == LockMode::kExclusive;
        return {AcquireDecision::Kind::kEnqueueGrant, slot_index};
      });

  if (!pushed && queue_observer_) {
    queue_observer_(
        hdr.lock_id, hdr.txn_id, hdr.mode, cls,
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
  Dequeue(hdr, lease_forced, *entry, pass);
  return true;
}

void LockSwitch::Dequeue(const LockHeader& hdr, bool lease_forced,
                         const SwitchLockEntry& entry, PacketPass& pass) {
  const std::size_t row = RowOf(entry);
  const std::span<const LockBounds> bounds =
      bounds_->ReadRow(pass, row, config_.num_priorities);

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
  const std::span<const LockMeta> peek =
      meta_->ReadRow(pass, row, config_.num_priorities);
  // The ring to pop. A lease-forced release names the class whose head it
  // reclaims. A client release names its entry's class (the grant carried
  // it); if that ring holds nothing — the entry was reclaimed, or the
  // sender did not name the class — the release falls to the first ring
  // that holds: the exclusive holder's, or a shared holder's (shared
  // releases are commutative).
  Priority cls = ClassOf(hdr.priority);
  if (!lease_forced && peek[cls].ring.granted == 0) {
    for (std::size_t c = 0; c < peek.size(); ++c) {
      if (peek[c].ring.granted > 0) {
        cls = static_cast<Priority>(c);
        break;
      }
    }
  }
  const ClassRing ring = peek[cls].ring;
  // Suspended locks have granted nothing: a *client* release reaching
  // them is a stale pre-failure message and must not dequeue a waiter. A
  // lease-forced release, however, targets the (expired) queue head itself
  // and must still dequeue it, or the sweep could never reclaim entries on
  // a suspended lock.
  if (ring.count == 0 || (!lease_forced && ring.granted == 0) ||
      (peek[0].suspended && !lease_forced)) {
    // A release for an entry the switch no longer has (post-restart or
    // post-lease-expiry duplicate). Safe to drop: leases already reclaimed
    // the slot.
    DropRelease(hdr, /*mismatched=*/false);
    return;
  }
  const QueueSlot head_peek = queue_->Read(pass, ring.head);
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
  // the head here. When the pop leaves the lock without holders and
  // entries wait (and it is not suspended: a suspended lock dequeues for
  // the lease sweep but grants only once Activate() lifts the suspension),
  // the same stage-1 access picks the cascade's first candidate: the head
  // of the highest non-empty class.
  pipeline_.Resubmit(pass);
  struct DequeueResult {
    bool notify_server = false;
    bool cascade = false;
    Priority next_cls = 0;
    std::uint32_t next_head = 0;
  };
  const DequeueResult deq = meta_->ReadModifyWriteRow(
      pass, row, config_.num_priorities,
      [&](std::span<LockMeta> lanes) -> DequeueResult {
        DequeueResult r;
        LockMeta& m = lanes[0];
        ClassRing& popped = lanes[cls].ring;
        popped.head = SharedQueue::Next(popped.head, bounds[cls]);
        --popped.count;
        if (head_peek.mode == LockMode::kExclusive) {
          NETLOCK_CHECK(popped.xcnt > 0);
          --popped.xcnt;
        }
        if (popped.granted > 0) {
          --popped.granted;
          if (head_peek.mode == LockMode::kExclusive) m.held_exclusive = false;
        }
        std::uint32_t entries = 0;
        std::uint32_t holders = 0;
        for (std::size_t c = 0; c < lanes.size(); ++c) {
          const ClassRing& q = lanes[c].ring;
          if (!r.cascade && q.count > 0) {
            r.cascade = true;
            r.next_cls = static_cast<Priority>(c);
            r.next_head = q.head;
          }
          entries += q.count;
          holders += q.granted;
        }
        r.cascade = r.cascade && holders == 0 && !m.suspended;
        if (entries == 0 && m.overflow) {
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
    SendQueueEmptyNotify(hdr.lock_id, entry.home_server, bounds);
  }
  if (deq.cascade) {
    GrantCascade(hdr.lock_id, row, bounds, deq.next_cls, deq.next_head,
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

void LockSwitch::GrantCascade(LockId lock, std::size_t row,
                              std::span<const LockBounds> bounds,
                              Priority cls, std::uint32_t index,
                              PacketPass& pass) {
  // Algorithm 2 lines 12-27. Grants re-stamp the slot's timestamp (a
  // read-modify-write, still one access): the lease measures *holding*
  // time from grant, not queueing time, so a request that waited long and
  // was just granted is not immediately reclaimed by the lease sweep.
  const SimTime now = net_.sim().now();
  for (bool first = true;; first = false) {
    // Stage 2+: the first candidate is granted whatever its mode (S->E,
    // E->E, or the head of E->S); later ones only while shared (E->S).
    const QueueSlot slot =
        queue_->ReadModifyWrite(pass, index, [&](QueueSlot& s) {
          QueueSlot copy = s;
          if (first || s.mode == LockMode::kShared) s.timestamp = now;
          return copy;
        });
    if (!first && slot.mode == LockMode::kExclusive) return;
    GrantQueued(lock, slot);
    // Next pass, stage 1: account the grant, then (shared batch) find the
    // next waiter in class order — behind this ring's holders, or the head
    // of a lower class once this one has none left.
    pipeline_.Resubmit(pass);
    struct Next {
      bool more = false;
      Priority cls = 0;
      std::uint32_t index = 0;
    };
    const Next next = meta_->ReadModifyWriteRow(
        pass, row, config_.num_priorities,
        [&](std::span<LockMeta> lanes) -> Next {
          ++lanes[cls].ring.granted;
          if (slot.mode == LockMode::kExclusive) {
            lanes[0].held_exclusive = true;
            return {};
          }
          for (std::size_t c = 0; c < lanes.size(); ++c) {
            const ClassRing& q = lanes[c].ring;
            if (q.granted < q.count) {
              return {true, static_cast<Priority>(c),
                      SharedQueue::Advance(q.head, q.granted, bounds[c])};
            }
          }
          return {};
        });
    if (!next.more) return;
    cls = next.cls;
    index = next.index;
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
  const std::size_t row = RowOf(*entry);
  const std::span<const LockBounds> bounds =
      bounds_->ReadRow(pass, row, config_.num_priorities);
  const std::uint32_t remaining_q2 = hdr.aux;

  enum class Action { kNone, kRenotify };
  const Action action = meta_->ReadModifyWriteRow(
      pass, row, config_.num_priorities,
      [&](std::span<LockMeta> lanes) -> Action {
        LockMeta& m = lanes[0];
        if (!m.overflow) return Action::kNone;
        std::uint32_t entries = 0;
        bool room = true;  // Every class's ring has a free slot.
        for (std::size_t c = 0; c < lanes.size(); ++c) {
          entries += lanes[c].ring.count;
          room = room && lanes[c].ring.count < bounds[c].size();
        }
        if (remaining_q2 == 0 && m.fwd_since_notify == 0 && room) {
          m.overflow = false;  // Episode over; normal mode (§4.3).
          return Action::kNone;
        }
        if (entries == 0) {
          m.fwd_since_notify = 0;
          m.last_notify = net_.sim().now();
          return Action::kRenotify;
        }
        return Action::kNone;  // Next emptying release re-notifies.
      });
  if (action == Action::kRenotify) {
    ++stats_.queue_empty_notifies;
    SendQueueEmptyNotify(hdr.lock_id, entry->home_server, bounds);
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
  const std::size_t classes = config_.num_priorities;
  for (const LockId lock : table_.InstalledLocks()) {
    const SwitchLockEntry* entry = table_.Find(lock);
    const std::size_t row = RowOf(*entry);
    const std::span<LockMeta> lanes = meta_->ControlRow(row, classes);
    while (do_releases) {
      // The expired head of the highest class that has one. A ring's head
      // is a holder unless the ring holds nothing; a suspended lock's
      // heads are reclaimed whether granted or not.
      Priority expired_cls = 0;
      const QueueSlot* expired = nullptr;
      for (std::size_t c = 0; c < classes && expired == nullptr; ++c) {
        const ClassRing& ring = lanes[c].ring;
        if (ring.count == 0 || (ring.granted == 0 && !lanes[0].suspended)) {
          continue;
        }
        const QueueSlot& head = queue_->ControlAt(ring.head);
        if (head.timestamp > cutoff) continue;
        expired_cls = static_cast<Priority>(c);
        expired = &head;
      }
      if (expired == nullptr) break;
      // Forced release of the expired head: reuses the data-plane release
      // path (the control plane injects the packet), which also cascades
      // grants to unblocked requests.
      const LockHeader forced = ForcedRelease(lock, *expired, expired_cls);
      HandleRelease(forced, /*lease_forced=*/true);
      // Chain head: the forced release must replicate like any other op.
      if (chain_next_ != kInvalidNode) ChainForward(forced, 0);
    }
    if (!do_rearm) continue;
    // Wedge recovery: if an overflow episode stalled with q1 empty — a
    // lost notify/push/resume — re-arm the handshake. Waiting a full
    // lease since the last notify guarantees no pushes are in flight
    // (they either landed long ago or were lost).
    LockMeta& meta = lanes[0];
    if (meta.overflow && Entries(lanes) == 0 &&
        meta.last_notify + lease <= now) {
      meta.fwd_since_notify = 0;
      meta.last_notify = now;
      ++stats_.queue_empty_notifies;
      SendQueueEmptyNotify(lock, entry->home_server,
                           bounds_->ControlRow(row, classes));
    }
  }
}

LockHeader LockSwitch::ForcedRelease(LockId lock, const QueueSlot& head,
                                     Priority cls) {
  LockHeader forced;
  forced.op = LockOp::kRelease;
  forced.lock_id = lock;
  forced.mode = head.mode;
  forced.priority = cls;
  forced.txn_id = head.txn_id;
  forced.client_node = head.client_node;
  forced.aux = forced_release_nonce_++;
  return forced;
}

void LockSwitch::HarvestDemands(double window_sec,
                                std::vector<LockDemand>& out) {
  NETLOCK_CHECK(window_sec > 0.0);
  for (const LockId lock : table_.InstalledLocks()) {
    const std::span<LockMeta> lanes = meta_->ControlRow(
        RowOf(*table_.Find(lock)), config_.num_priorities);
    LockMeta& meta = lanes[0];
    out.push_back(LockDemand{
        lock, static_cast<double>(meta.req_count) / window_sec,
        std::max(1u, meta.max_count)});
    meta.req_count = 0;
    meta.max_count = std::max(1u, Entries(lanes));
  }
}

bool LockSwitch::IsSuspended(LockId lock) const {
  const SwitchLockEntry* entry = table_.Find(lock);
  if (entry == nullptr) return false;
  return meta_->ControlRead(RowOf(*entry)).suspended;
}

void LockSwitch::Suspend(LockId lock) {
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  PacketPass pass = pipeline_.BeginPass();
  meta_->ReadModifyWriteRow(pass, RowOf(*entry), config_.num_priorities,
                            [](std::span<LockMeta> lanes) {
                              lanes[0].suspended = true;
                              return 0;
                            });
}

void LockSwitch::Activate(LockId lock) {
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  PacketPass pass = pipeline_.BeginPass();
  const std::size_t row = RowOf(*entry);
  const std::span<const LockBounds> bounds =
      bounds_->ReadRow(pass, row, config_.num_priorities);
  struct Wake {
    bool grant = false;
    Priority cls = 0;
    std::uint32_t head = 0;
  };
  // Grant from scratch, as the cascade after an exclusive release does:
  // the head of the highest non-empty class, and if it is shared, the
  // whole leading shared batch. Grants made before a Suspend() are made
  // again (the lease sweep reclaims their entries meanwhile).
  const Wake wake = meta_->ReadModifyWriteRow(
      pass, row, config_.num_priorities,
      [&](std::span<LockMeta> lanes) -> Wake {
        if (!lanes[0].suspended) return {};
        lanes[0].suspended = false;
        lanes[0].held_exclusive = false;
        Wake w;
        for (std::size_t c = 0; c < lanes.size(); ++c) {
          ClassRing& ring = lanes[c].ring;
          ring.granted = 0;
          if (!w.grant && ring.count > 0) {
            w = {true, static_cast<Priority>(c), ring.head};
          }
        }
        return w;
      });
  if (wake.grant) {
    GrantCascade(lock, row, bounds, wake.cls, wake.head, pass);
  }
}

LockSwitch::DebugState LockSwitch::Debug(LockId lock) const {
  const SwitchLockEntry* entry = table_.Find(lock);
  NETLOCK_CHECK(entry != nullptr);
  DebugState state;
  for (const LockMeta& lane :
       meta_->ControlRow(RowOf(*entry), config_.num_priorities)) {
    state.rings.push_back(lane.ring);
  }
  state.meta = meta_->ControlRead(RowOf(*entry));
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

void LockSwitch::GrantQueued(LockId lock, const QueueSlot& slot) {
  // `slot` is the pre-restamp copy: its timestamp is the enqueue time, so
  // the span is this waiter's full time in the shared queue.
  if (trace_->Sampled(lock, slot.txn_id)) {
    trace_->Complete(TraceTrack::kQueue, "queue.wait", slot.timestamp,
                     net_.sim().now(), TraceLog::RequestId(lock, slot.txn_id));
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
                                      std::span<const LockBounds> bounds) {
  if (server == kInvalidNode) return;
  LockHeader notify;
  notify.op = LockOp::kQueueEmpty;
  notify.lock_id = lock;
  notify.aux = bounds[0].size();
  for (const LockBounds& region : bounds) {
    notify.aux = std::min(notify.aux, region.size());
  }
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
