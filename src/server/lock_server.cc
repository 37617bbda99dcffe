#include "server/lock_server.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

namespace {
constexpr std::size_t kReleaseFilterSlots = 4096;  ///< Release-dedup cells.
}  // namespace

LockServer::LockServer(Network& net, LockServerConfig config)
    : net_(net),
      config_(config),
      trace_(&net.sim().context().trace()),
      trace_pid_(net.sim().context().trace().current_pid()),
      engine_(*this) {
  NETLOCK_CHECK(config_.cores >= 1);
  engine_.set_deadlock_policy(config_.deadlock_policy);
  MetricsRegistry& reg = net_.sim().context().metrics();
  metrics_.grants = &reg.Counter("server.grants");
  metrics_.releases = &reg.Counter("server.releases");
  metrics_.buffered = &reg.Counter("server.q2_buffered");
  metrics_.pushes = &reg.Counter("server.q2_pushes");
  metrics_.requests = &reg.Counter("server.requests_processed");
  metrics_.q2_depth = &reg.Gauge("server.q2_depth");
  node_ = net_.AddNode([this](const Packet& pkt) { OnPacket(pkt); });
  release_filter_.assign(kReleaseFilterSlots, 0);
  cores_.reserve(config_.cores);
  for (int i = 0; i < config_.cores; ++i) {
    cores_.push_back(std::make_unique<ServiceQueue>(
        net_.sim(), config_.per_request_service));
  }
}

int LockServer::CoreFor(LockId lock) const {
  return RssCore(lock, config_.cores);
}

void LockServer::OnPacket(const Packet& pkt) {
  if (failed_) return;  // Crashed: everything is dropped.
  TraceLog::PidScope pid_scope(*trace_, trace_pid_);
  const std::optional<LockHeader> hdr = LockHeader::Parse(pkt);
  if (!hdr) return;
  // Dispatch to the RSS core; processing happens after the CPU service time.
  const int core = CoreFor(hdr->lock_id);
  if (trace_->Sampled(hdr->lock_id, hdr->txn_id)) {
    // The service span is fully determined at submit time: the core works
    // FIFO at a fixed per-request service time (see ServiceQueue).
    const SimTime now = net_.sim().now();
    const SimTime busy = cores_[core]->busy_until();
    const SimTime start = busy > now ? busy : now;
    trace_->Complete(TraceTrack::kServer, "server.service", start,
                     start + config_.per_request_service,
                     TraceLog::RequestId(hdr->lock_id, hdr->txn_id),
                     {"core", static_cast<std::uint64_t>(core)},
                     {"core_wait", start - now});
  }
  cores_[core]->Submit([this, hdr = *hdr]() { Process(hdr); });
}

void LockServer::AdjustQ2Depth(std::int64_t delta) {
  metrics_.q2_depth->Add(delta);
}

void LockServer::Process(const LockHeader& hdr) {
  TraceLog::PidScope pid_scope(*trace_, trace_pid_);
  ++stats_.requests_processed;
  metrics_.requests->Inc();
  switch (hdr.op) {
    case LockOp::kAcquire:
      if ((hdr.flags & kFlagBufferOnly) != 0 && !engine_.Owns(hdr.lock_id)) {
        ProcessBufferOnly(hdr);
      } else {
        ProcessOwnedAcquire(hdr);
      }
      break;
    case LockOp::kRelease:
      ProcessOwnedRelease(hdr);
      break;
    case LockOp::kCancel:
      ProcessCancel(hdr);
      break;
    case LockOp::kQueueEmpty:
      ProcessQueueEmpty(hdr);
      break;
    default:
      break;
  }
}

void LockServer::ProcessOwnedAcquire(const LockHeader& hdr) {
  const SimTime now = net_.sim().now();
  if (!engine_.Owns(hdr.lock_id)) {
    if (handed_off_.count(hdr.lock_id) != 0) {
      // Sent here before the lock moved on (in flight, or queued at a core
      // during the handoff): granting it would re-create ownership beside
      // the new owner's. The switch routes it to that owner.
      ForwardToSwitch(hdr);
      return;
    }
    if (now < grace_until_) {
      // Fresh ownership inherited from a failed peer: queue without
      // granting until the dead server's leases have expired (§4.5).
      engine_.SetPaused(hdr.lock_id, true);
      graced_locks_.push_back(hdr.lock_id);
    }
  }
  engine_.Acquire(hdr.lock_id, SlotFromHeader(hdr, now), now);
}

void LockServer::ProcessOwnedRelease(const LockHeader& hdr) {
  // Retransmission dedup: the engine's queue pop does not check transaction
  // IDs for shared entries, so a duplicated RELEASE would dequeue some
  // other waiter's entry.
  const std::uint64_t fp = ReleaseFingerprint(hdr);
  std::uint64_t& reg =
      release_filter_[static_cast<std::size_t>(fp % kReleaseFilterSlots)];
  if (reg == fp) {
    ++stats_.duplicate_releases;
    return;
  }
  reg = fp;  // Collisions just evict: the filter is best-effort.
  switch (engine_.Release(hdr.lock_id, hdr.mode, hdr.txn_id,
                          /*lease_forced=*/false, net_.sim().now())) {
    case ReleaseOutcome::kApplied:
      ++stats_.releases;
      metrics_.releases->Inc();
      break;
    case ReleaseOutcome::kStale:
      ++stats_.stale_releases;
      break;
    case ReleaseOutcome::kMismatched:
      ++stats_.mismatched_releases;
      break;
  }
}

void LockServer::ProcessBufferOnly(const LockHeader& hdr) {
  // Preserve the client's issue time.
  q2_[hdr.lock_id].push_back(SlotFromHeader(hdr, hdr.timestamp));
  ++stats_.buffered;
  metrics_.buffered->Inc();
  AdjustQ2Depth(+1);
  if (trace_->Sampled(hdr.lock_id, hdr.txn_id)) {
    trace_->Instant(TraceTrack::kServer, "server.q2_buffer",
                    net_.sim().now(),
                    TraceLog::RequestId(hdr.lock_id, hdr.txn_id),
                    {"depth", q2_[hdr.lock_id].size()});
  }
}

void LockServer::ProcessQueueEmpty(const LockHeader& hdr) {
  NETLOCK_CHECK(switch_node_ != kInvalidNode);
  // A duplicated (or reordered, older) notify must not push again: the
  // switch sized the first batch to its free slots, and a second batch
  // would overrun q1. The switch re-arms with a fresh timestamp if the
  // handshake wedges, so dropping here never strands q2.
  const auto [notify_it, first_notify] =
      last_push_notify_.try_emplace(hdr.lock_id, hdr.timestamp);
  if (!first_notify) {
    if (hdr.timestamp <= notify_it->second) {
      ++stats_.duplicate_notifies;
      return;
    }
    notify_it->second = hdr.timestamp;
  }
  std::deque<QueueSlot>& q2 = q2_[hdr.lock_id];
  const std::uint32_t free_slots = hdr.aux;
  const std::size_t to_push =
      std::min<std::size_t>(free_slots, q2.size());
  for (std::size_t i = 0; i < to_push; ++i) {
    const QueueSlot& slot = q2.front();
    LockHeader push = HeaderFromSlot(LockOp::kPush, hdr.lock_id, slot);
    push.flags = kFlagPushed;
    if (trace_->Sampled(hdr.lock_id, slot.txn_id)) {
      trace_->Instant(TraceTrack::kServer, "server.q2_push",
                      net_.sim().now(),
                      TraceLog::RequestId(hdr.lock_id, slot.txn_id));
    }
    net_.Send(MakeLockPacket(node_, switch_node_, push));
    q2.pop_front();
    ++stats_.pushes_sent;
    metrics_.pushes->Inc();
    AdjustQ2Depth(-1);
  }
  // Report remaining q2 depth; the switch decides whether the overflow
  // episode can end (see switch_dataplane.cc protocol walkthrough).
  LockHeader sync;
  sync.op = LockOp::kSyncState;
  sync.lock_id = hdr.lock_id;
  sync.aux = static_cast<std::uint32_t>(q2.size());
  net_.Send(MakeLockPacket(node_, switch_node_, sync));
  if (q2.empty()) q2_.erase(hdr.lock_id);
}

void LockServer::ProcessCancel(const LockHeader& hdr) {
  // Remove every queue entry of (lock, txn), granted or not, without
  // notifying the (already aborted) owner. Survivors newly at the granted
  // prefix are granted by the engine as usual. Idempotent: a duplicated
  // copy finds nothing.
  const LockEngine::RemoveResult removed = engine_.RemoveTxn(
      hdr.lock_id, hdr.txn_id, net_.sim().now(), /*notify=*/false);
  stats_.cancels_removed += removed.removed;
}

void LockServer::DeliverAbort(LockId lock, const QueueSlot& slot,
                              AbortReason reason) {
  if (reason == AbortReason::kWound) {
    ++stats_.wounds;
  } else {
    ++stats_.aborts_refused;
  }
  if (abort_observer_) {
    abort_observer_(lock, slot.txn_id, reason, slot.client_node);
  }
  LockHeader abort = HeaderFromSlot(LockOp::kAbort, lock, slot);
  abort.aux = static_cast<std::uint32_t>(reason);
  net_.Send(MakeLockPacket(node_, slot.client_node, abort));
}

void LockServer::DeliverGrant(LockId lock, const QueueSlot& slot) {
  ++stats_.grants;
  metrics_.grants->Inc();
  if (grant_observer_) {
    grant_observer_(lock, slot.txn_id, slot.mode, slot.client_node);
  }
  LockHeader grant = HeaderFromSlot(LockOp::kGrant, lock, slot);
  grant.aux = grant_nonce_++;  // Per-instance nonce (dedup filter key).
  net_.Send(MakeLockPacket(node_, slot.client_node, grant));
}

void LockServer::OnWaitEnd(LockId lock, const QueueSlot& slot, SimTime now) {
  if (!trace_->Sampled(lock, slot.txn_id)) return;
  trace_->Complete(TraceTrack::kServer, "server.queue_wait", slot.timestamp,
                   now, TraceLog::RequestId(lock, slot.txn_id));
}

void LockServer::TakeOwnership(LockId lock) {
  std::deque<QueueSlot> backlog;
  const auto it = q2_.find(lock);
  if (it != q2_.end()) {
    // q2 becomes the active queue, in order; the engine grants the new
    // front per the usual rules (first entry, plus following shareds if it
    // is shared).
    AdjustQ2Depth(-static_cast<std::int64_t>(it->second.size()));
    backlog = std::move(it->second);
    q2_.erase(it);
  }
  engine_.AdoptQueue(lock, std::move(backlog), net_.sim().now());
  handed_off_.erase(lock);
}

void LockServer::DropOwnership(LockId lock) {
  engine_.DropDrained(lock);
  handed_off_.insert(lock);
}

void LockServer::EvictOwnership(LockId lock) { engine_.Drop(lock); }

void LockServer::Fail() {
  failed_ = true;
  engine_.Clear();
  for (const auto& [lock, q2] : q2_) {
    AdjustQ2Depth(-static_cast<std::int64_t>(q2.size()));
  }
  q2_.clear();
  handed_off_.clear();
  graced_locks_.clear();
  release_filter_.assign(kReleaseFilterSlots, 0);
  last_push_notify_.clear();
  for (auto& core : cores_) core->Reset();
}

void LockServer::Restart() { failed_ = false; }

void LockServer::GracePeriodUntil(SimTime until) {
  NETLOCK_CHECK(until >= net_.sim().now());
  grace_until_ = until;
  // The alive set changed, so a lock handed off may be homed here again:
  // forwarding it would bounce between this server and the switch.
  handed_off_.clear();
  net_.sim().ScheduleAt(until, [this]() { ActivateGraced(); });
}

void LockServer::ActivateGraced() {
  if (net_.sim().now() < grace_until_) return;  // Superseded by a new grace.
  std::vector<LockId> locks;
  locks.swap(graced_locks_);
  const SimTime now = net_.sim().now();
  for (const LockId lock : locks) {
    if (!engine_.Owns(lock) || !engine_.IsPaused(lock)) continue;
    engine_.SetPaused(lock, false);
    // Move the buffered requests through the normal owned path, in order.
    for (const QueueSlot& slot : engine_.TakePausedBuffer(lock)) {
      engine_.Acquire(lock, slot, now);
    }
  }
}

void LockServer::PauseLock(LockId lock, bool paused) {
  engine_.SetPaused(lock, paused);
}

bool LockServer::QueueEmpty(LockId lock) const {
  return engine_.QueueEmpty(lock);
}

std::size_t LockServer::QueueDepth(LockId lock) const {
  return engine_.QueueDepth(lock) + OverflowDepth(lock);
}

void LockServer::ForwardBufferedToSwitch(LockId lock) {
  if (!engine_.Owns(lock)) return;
  for (const QueueSlot& slot : engine_.TakePausedBuffer(lock)) {
    ForwardToSwitch(HeaderFromSlot(LockOp::kAcquire, lock, slot));
  }
}

void LockServer::ForwardToSwitch(LockHeader req) {
  NETLOCK_CHECK(switch_node_ != kInvalidNode);
  req.op = LockOp::kAcquire;
  req.flags = 0;  // A fresh acquire for the switch to admit.
  net_.Send(MakeLockPacket(node_, switch_node_, req));
}

void LockServer::ClearExpired(SimTime lease) {
  TraceLog::PidScope pid_scope(*trace_, trace_pid_);
  const std::uint64_t forced =
      engine_.ClearExpired(lease, net_.sim().now());
  stats_.releases += forced;
  metrics_.releases->Inc(forced);
}

std::size_t LockServer::OverflowDepth(LockId lock) const {
  const auto it = q2_.find(lock);
  return it == q2_.end() ? 0 : it->second.size();
}

std::vector<LockId> LockServer::OwnedLocks() const {
  return engine_.OwnedLocks();
}

void LockServer::DropState(LockId lock) {
  engine_.Drop(lock);
  handed_off_.insert(lock);
  const auto it = q2_.find(lock);
  if (it != q2_.end()) {
    AdjustQ2Depth(-static_cast<std::int64_t>(it->second.size()));
    q2_.erase(it);
  }
}

void LockServer::HarvestDemands(double window_sec,
                                std::vector<LockDemand>& out) {
  engine_.HarvestDemands(window_sec, out);
}

}  // namespace netlock
