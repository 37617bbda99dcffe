#include "rt/rt_lock_service.h"

#include <algorithm>
#include <thread>

#include "common/check.h"

namespace netlock::rt {

namespace {
constexpr std::size_t kRingCapacity = 8192;    ///< Each mailbox, each ring.
constexpr std::size_t kFlightCapacity = 4096;  ///< Per core (owned recorder).
}  // namespace

RtLockService::RtLockService(Options options, RtSubstrate& substrate)
    : options_(options), substrate_(substrate), domain_(options.cores) {
  NETLOCK_CHECK(options_.cores >= 1);
  NETLOCK_CHECK(options_.num_clients >= 1);

  c_requests_ = domain_.RegisterCounter("rt.requests");
  c_grants_ = domain_.RegisterCounter("rt.grants");
  c_releases_ = domain_.RegisterCounter("rt.releases");
  c_stale_releases_ = domain_.RegisterCounter("rt.stale_releases");
  c_mismatched_releases_ = domain_.RegisterCounter("rt.mismatched_releases");
  c_batches_ = domain_.RegisterCounter("rt.batches");
  c_flushes_ = domain_.RegisterCounter("rt.flushes");
  c_staged_completions_ = domain_.RegisterCounter("rt.staged_completions");
  c_aborts_ = domain_.RegisterCounter("rt.aborts");
  c_wounds_ = domain_.RegisterCounter("rt.wounds");
  c_cancel_removed_ = domain_.RegisterCounter("rt.cancel_removed");
  c_cancel_removed_granted_ =
      domain_.RegisterCounter("rt.cancel_removed_granted");
  g_mailbox_depth_ = domain_.RegisterGauge("rt.mailbox_depth",
                                           TelemetryDomain::GaugeAgg::kSum);
  g_batch_ = domain_.RegisterGauge("rt.batch",
                                   TelemetryDomain::GaugeAgg::kMax);

  if (options_.recorder != nullptr) {
    recorder_ = options_.recorder;
  } else if (options_.telemetry) {
    owned_recorder_ = std::make_unique<FlightRecorder>(
        options_.cores, kFlightCapacity);
    recorder_ = owned_recorder_.get();
  }

  cores_.reserve(static_cast<std::size_t>(options_.cores));
  req_rings_.resize(static_cast<std::size_t>(options_.cores));
  for (int c = 0; c < options_.cores; ++c) {
    auto core = std::make_unique<Core>();
    core->sink.service = this;
    core->sink.core = c;
    core->engine = std::make_unique<LockEngine>(core->sink);
    core->engine->set_deadlock_policy(options_.deadlock_policy);
    cores_.push_back(std::move(core));
    req_rings_[static_cast<std::size_t>(c)].reserve(
        static_cast<std::size_t>(options_.num_clients));
    for (int cl = 0; cl < options_.num_clients; ++cl) {
      req_rings_[static_cast<std::size_t>(c)].push_back(
          std::make_unique<SpscRing<RtRequest>>(kRingCapacity));
    }
  }
  comp_rings_.resize(static_cast<std::size_t>(options_.num_clients));
  for (int cl = 0; cl < options_.num_clients; ++cl) {
    comp_rings_[static_cast<std::size_t>(cl)].reserve(
        static_cast<std::size_t>(options_.cores));
    for (int c = 0; c < options_.cores; ++c) {
      comp_rings_[static_cast<std::size_t>(cl)].push_back(
          std::make_unique<SpscRing<RtCompletion>>(kRingCapacity));
    }
  }
  drain_buf_ = std::make_unique<AlignedRegions<RtRequest>>(
      static_cast<std::size_t>(options_.cores), options_.drain_batch);
  staging_.reserve(static_cast<std::size_t>(options_.cores));
  for (int c = 0; c < options_.cores; ++c) {
    auto staging = std::make_unique<CoreStaging>();
    staging->per_client.resize(static_cast<std::size_t>(options_.num_clients));
    for (auto& buf : staging->per_client) {
      buf.reserve(options_.drain_batch);
    }
    staging_.push_back(std::move(staging));
  }

  RtExecutor::Options exec;
  exec.num_workers = options_.cores;
  exec.spin_rounds = options_.spin_rounds;
  exec.yield_rounds = options_.yield_rounds;
  exec.park_timeout = options_.park_timeout;
  executor_ = std::make_unique<RtExecutor>(
      exec, [this](int worker) { return ServiceCore(worker); });
}

RtLockService::~RtLockService() { Stop(); }

void RtLockService::Start() { executor_->Start(); }

void RtLockService::Stop() {
  if (executor_->running()) {
    WaitQuiesce();
    executor_->Stop();
  }
}

int RtLockService::CoreFor(LockId lock) const {
  // Same integer-mix RSS dispatch as the simulated LockServer.
  std::uint32_t h = lock;
  h ^= h >> 16;
  h *= 0x45d9f3bu;
  h ^= h >> 16;
  return static_cast<int>(h % static_cast<std::uint32_t>(options_.cores));
}

void RtLockService::SubmitBatch(int client, int core, const RtRequest* reqs,
                                std::size_t n) {
  if (n == 0) return;
  SpscRing<RtRequest>& ring =
      *req_rings_[static_cast<std::size_t>(core)]
                 [static_cast<std::size_t>(client)];
  // Count before the push: a worker may process a request the instant it
  // lands, and WaitQuiesce must never observe processed > submitted.
  submitted_.fetch_add(n, std::memory_order_relaxed);
  std::size_t pushed = 0;
  int spins = 0;
  while (pushed < n) {
    const std::size_t k = ring.PushBatch(reqs + pushed, n - pushed);
    if (k == 0) {
      // A full ring means the owning core fell behind (or missed a
      // doorbell and parked); a rescue wake restores liveness, but only
      // after some spinning so the common full-ring blip stays
      // doorbell-free.
      if (++spins > 64) {
        executor_->WakeWorker(core);
        std::this_thread::yield();
      }
      continue;
    }
    pushed += k;
    spins = 0;
  }
  // One doorbell for the whole flush, rung only at the owning worker.
  executor_->WakeWorker(core);
}

std::size_t RtLockService::PollCompletions(int client, RtCompletion* out,
                                           std::size_t max) {
  std::size_t n = 0;
  auto& rings = comp_rings_[static_cast<std::size_t>(client)];
  for (auto& ring : rings) {
    if (n >= max) break;
    n += ring->PopBatch(out + n, max - n);
  }
  return n;
}

void RtLockService::WaitQuiesce() {
  int spins = 0;
  while (processed_.load(std::memory_order_acquire) <
         submitted_.load(std::memory_order_acquire)) {
    executor_->Wake();
    if (++spins > 64) std::this_thread::yield();
  }
}

std::size_t RtLockService::MailboxDepthApprox(int core) const {
  std::size_t depth = 0;
  for (const auto& ring : req_rings_[static_cast<std::size_t>(core)]) {
    depth += ring->SizeApprox();
  }
  return depth;
}

bool RtLockService::ServiceCore(int core) {
  Core& c = *cores_[static_cast<std::size_t>(core)];
  RtRequest* buf = drain_buf_->region(static_cast<std::size_t>(core));
  bool any = false;
  std::size_t processed = 0;
  for (auto& ring : req_rings_[static_cast<std::size_t>(core)]) {
    const std::size_t n = ring->PopBatch(buf, options_.drain_batch);
    if (n == 0) continue;
    any = true;
    domain_.Inc(core, c_batches_);
    domain_.GaugeSet(core, g_batch_, n);  // hwm tracks the largest drain.
    for (std::size_t i = 0; i < n; ++i) Process(core, c, buf[i]);
    processed += n;
  }
  // Flush staged grants before acknowledging the requests as processed, so
  // WaitQuiesce implies every completion is visible in its client ring.
  if (any) FlushStaged(core);
  if (processed != 0) {
    processed_.fetch_add(processed, std::memory_order_release);
  }
  if (any) {
    domain_.GaugeSet(core, g_mailbox_depth_, MailboxDepthApprox(core));
  } else if (domain_.GaugeShard(core, g_mailbox_depth_) != 0) {
    domain_.GaugeSet(core, g_mailbox_depth_, 0);
  }
  return any;
}

void RtLockService::Process(int core_idx, Core& core, const RtRequest& req) {
  const SimTime now = substrate_.Now();
  if (req.op == RtRequest::Op::kAcquire) {
    domain_.Inc(core_idx, c_requests_);
    if (recorder_ != nullptr) {
      recorder_->Record(core_idx, FlightRecorder::Op::kAccept, req.lock,
                        req.mode, req.txn, now, req.client);
    }
    RecordEvent(core, RtEvent::Kind::kAccept, req.lock, req.mode, req.txn);
    QueueSlot slot;
    slot.mode = req.mode;
    slot.txn_id = req.txn;
    slot.client_node = req.client;  // Client-thread index, not a NodeId.
    core.engine->Acquire(req.lock, slot, now);
    return;
  }
  if (req.op == RtRequest::Op::kCancel) {
    // Reserve the abort event's sequence before entering the engine, like
    // a release: RemoveTxn's cascade grants must sort after the removal.
    std::uint64_t cancel_seq = 0;
    if (options_.record_events) {
      cancel_seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
    }
    const LockEngine::RemoveResult removed = core.engine->RemoveTxn(
        req.lock, req.txn, now, /*notify=*/false);
    if (removed.removed != 0) {
      domain_.Inc(core_idx, c_cancel_removed_, removed.removed);
      if (removed.removed_granted != 0) {
        domain_.Inc(core_idx, c_cancel_removed_granted_,
                    removed.removed_granted);
      }
      if (recorder_ != nullptr) {
        recorder_->Record(core_idx, FlightRecorder::Op::kCancel, req.lock,
                          req.mode, req.txn, now, req.client);
      }
      // One kAbort event covers every removed entry of the pair: replay
      // drops all of (lock, txn)'s holder state at once.
      AppendEvent(core, cancel_seq, RtEvent::Kind::kAbort, req.lock,
                  req.mode, req.txn);
    }
    return;
  }
  // Reserve the release's sequence number before entering the engine: the
  // grant cascade runs inside Release(), and its kGrant events must sort
  // after the release that enabled them, or oracle replay would see the
  // next holder granted while the previous one still holds.
  std::uint64_t release_seq = 0;
  if (options_.record_events) {
    release_seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  const ReleaseOutcome outcome = core.engine->Release(
      req.lock, req.mode, req.txn, /*lease_forced=*/false, now);
  switch (outcome) {
    case ReleaseOutcome::kApplied:
      domain_.Inc(core_idx, c_releases_);
      if (recorder_ != nullptr) {
        recorder_->Record(core_idx, FlightRecorder::Op::kRelease, req.lock,
                          req.mode, req.txn, now, req.client);
      }
      AppendEvent(core, release_seq, RtEvent::Kind::kRelease, req.lock,
                  req.mode, req.txn);
      break;
    case ReleaseOutcome::kStale:
      domain_.Inc(core_idx, c_stale_releases_);
      if (recorder_ != nullptr) {
        recorder_->Record(core_idx, FlightRecorder::Op::kStaleRelease,
                          req.lock, req.mode, req.txn, now, req.client);
      }
      break;
    case ReleaseOutcome::kMismatched:
      domain_.Inc(core_idx, c_mismatched_releases_);
      if (recorder_ != nullptr) {
        recorder_->Record(core_idx, FlightRecorder::Op::kMismatchedRelease,
                          req.lock, req.mode, req.txn, now, req.client);
      }
      break;
  }
}

void RtLockService::RecordEvent(Core& core, RtEvent::Kind kind, LockId lock,
                                LockMode mode, TxnId txn) {
  if (!options_.record_events) return;
  AppendEvent(core, event_seq_.fetch_add(1, std::memory_order_relaxed),
              kind, lock, mode, txn);
}

void RtLockService::AppendEvent(Core& core, std::uint64_t seq,
                                RtEvent::Kind kind, LockId lock,
                                LockMode mode, TxnId txn) {
  if (!options_.record_events) return;
  RtEvent ev;
  ev.seq = seq;
  ev.kind = kind;
  ev.lock = lock;
  ev.mode = mode;
  ev.txn = txn;
  core.events.push_back(ev);
}

void RtLockService::Core::Sink::DeliverGrant(LockId lock,
                                             const QueueSlot& slot) {
  RtLockService& svc = *service;
  Core& c = *svc.cores_[static_cast<std::size_t>(core)];
  svc.domain_.Inc(core, svc.c_grants_);
  if (svc.recorder_ != nullptr) {
    svc.recorder_->Record(core, FlightRecorder::Op::kGrant, lock, slot.mode,
                          slot.txn_id, slot.timestamp,
                          static_cast<std::uint32_t>(slot.client_node));
  }
  svc.RecordEvent(c, RtEvent::Kind::kGrant, lock, slot.mode, slot.txn_id);
  RtCompletion comp;
  comp.lock = lock;
  comp.mode = slot.mode;
  comp.txn = slot.txn_id;
  comp.granted_at = slot.timestamp;
  svc.DeliverCompletion(core, comp,
                        static_cast<std::uint32_t>(slot.client_node));
}

void RtLockService::Core::Sink::DeliverAbort(LockId lock,
                                             const QueueSlot& slot,
                                             AbortReason reason) {
  RtLockService& svc = *service;
  Core& c = *svc.cores_[static_cast<std::size_t>(core)];
  svc.domain_.Inc(core, reason == AbortReason::kWound ? svc.c_wounds_
                                                      : svc.c_aborts_);
  if (svc.recorder_ != nullptr) {
    svc.recorder_->Record(core, FlightRecorder::Op::kAbort, lock, slot.mode,
                          slot.txn_id, svc.substrate_.Now(),
                          static_cast<std::uint32_t>(slot.client_node));
  }
  // Fired before the wound's cascade grants (engine contract), so the
  // replayed abort always precedes the grants it enabled.
  svc.RecordEvent(c, RtEvent::Kind::kAbort, lock, slot.mode, slot.txn_id);
  RtCompletion comp;
  comp.lock = lock;
  comp.mode = slot.mode;
  comp.txn = slot.txn_id;
  comp.status = RtCompletion::Status::kAborted;
  comp.reason = reason;
  svc.DeliverCompletion(core, comp,
                        static_cast<std::uint32_t>(slot.client_node));
}

void RtLockService::DeliverCompletion(int core, const RtCompletion& comp,
                                      std::uint32_t client) {
  // ServiceCore flushes the whole batch after the drain.
  staging_[static_cast<std::size_t>(core)]->per_client[client].push_back(
      comp);
}

void RtLockService::FlushStaged(int core) {
  CoreStaging& staging = *staging_[static_cast<std::size_t>(core)];
  for (std::size_t cl = 0; cl < staging.per_client.size(); ++cl) {
    std::vector<RtCompletion>& buf = staging.per_client[cl];
    if (buf.empty()) continue;
    SpscRing<RtCompletion>& ring =
        *comp_rings_[cl][static_cast<std::size_t>(core)];
    std::size_t pushed = 0;
    int spins = 0;
    // Backpressure: the client is the only consumer; if its completion
    // ring is full we wait for it — between drains, not mid-cascade — and
    // never drop a completion.
    while (pushed < buf.size()) {
      const std::size_t k =
          ring.PushBatch(buf.data() + pushed, buf.size() - pushed);
      if (k == 0) {
        if (++spins > 64) std::this_thread::yield();
        continue;
      }
      pushed += k;
      spins = 0;
    }
    domain_.Inc(core, c_flushes_);
    domain_.Inc(core, c_staged_completions_, buf.size());
    buf.clear();
  }
}

RtLockService::Stats RtLockService::CoreStats(int core) const {
  Stats s;
  s.requests = domain_.CounterShard(core, c_requests_);
  s.grants = domain_.CounterShard(core, c_grants_);
  s.releases = domain_.CounterShard(core, c_releases_);
  s.stale_releases = domain_.CounterShard(core, c_stale_releases_);
  s.mismatched_releases = domain_.CounterShard(core, c_mismatched_releases_);
  s.batches = domain_.CounterShard(core, c_batches_);
  s.max_batch = domain_.GaugeShardHighWater(core, g_batch_);
  s.flushes = domain_.CounterShard(core, c_flushes_);
  s.staged_completions = domain_.CounterShard(core, c_staged_completions_);
  s.aborts = domain_.CounterShard(core, c_aborts_);
  s.wounds = domain_.CounterShard(core, c_wounds_);
  s.cancel_removed = domain_.CounterShard(core, c_cancel_removed_);
  s.cancel_removed_granted =
      domain_.CounterShard(core, c_cancel_removed_granted_);
  return s;
}

RtLockService::Stats RtLockService::TotalStats() const {
  Stats total;
  total.requests = domain_.CounterTotal(c_requests_);
  total.grants = domain_.CounterTotal(c_grants_);
  total.releases = domain_.CounterTotal(c_releases_);
  total.stale_releases = domain_.CounterTotal(c_stale_releases_);
  total.mismatched_releases = domain_.CounterTotal(c_mismatched_releases_);
  total.batches = domain_.CounterTotal(c_batches_);
  total.max_batch = domain_.GaugeHighWater(g_batch_);
  total.flushes = domain_.CounterTotal(c_flushes_);
  total.staged_completions = domain_.CounterTotal(c_staged_completions_);
  total.aborts = domain_.CounterTotal(c_aborts_);
  total.wounds = domain_.CounterTotal(c_wounds_);
  total.cancel_removed = domain_.CounterTotal(c_cancel_removed_);
  total.cancel_removed_granted =
      domain_.CounterTotal(c_cancel_removed_granted_);
  return total;
}

std::size_t RtLockService::TotalQueueDepth() const {
  std::size_t total = 0;
  for (const auto& core : cores_) total += core->engine->TotalQueueDepth();
  return total;
}

std::vector<RtEvent> RtLockService::DrainEvents() {
  std::vector<RtEvent> merged;
  for (auto& core : cores_) {
    merged.insert(merged.end(), core->events.begin(), core->events.end());
    core->events.clear();
  }
  std::sort(merged.begin(), merged.end(),
            [](const RtEvent& a, const RtEvent& b) { return a.seq < b.seq; });
  return merged;
}

}  // namespace netlock::rt
