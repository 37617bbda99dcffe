#include "rt/rt_lock_service.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "net/lock_wire.h"

namespace netlock::rt {

namespace {
constexpr std::size_t kRingCapacity = 8192;    ///< Each mailbox, each ring.
constexpr std::size_t kFlightCapacity = 4096;  ///< Per core (owned recorder).
}  // namespace

RtLockService::RtLockService(Options options, RtSubstrate& substrate)
    : options_(options),
      substrate_(substrate),
      metrics_(options.cores),
      c_requests_(&metrics_.Counter("rt.requests")),
      c_grants_(&metrics_.Counter("rt.grants")),
      c_releases_(&metrics_.Counter("rt.releases")),
      c_stale_releases_(&metrics_.Counter("rt.stale_releases")),
      c_mismatched_releases_(&metrics_.Counter("rt.mismatched_releases")),
      c_batches_(&metrics_.Counter("rt.batches")),
      c_flushes_(&metrics_.Counter("rt.flushes")),
      c_staged_completions_(&metrics_.Counter("rt.staged_completions")),
      c_aborts_(&metrics_.Counter("rt.aborts")),
      c_wounds_(&metrics_.Counter("rt.wounds")),
      c_cancel_removed_(&metrics_.Counter("rt.cancel_removed")),
      c_cancel_removed_granted_(
          &metrics_.Counter("rt.cancel_removed_granted")),
      g_mailbox_depth_(&metrics_.Gauge("rt.mailbox_depth", GaugeAgg::kSum)),
      g_batch_(&metrics_.Gauge("rt.batch", GaugeAgg::kMax)) {
  NETLOCK_CHECK(options_.cores >= 1);
  NETLOCK_CHECK(options_.num_clients >= 1);

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
  return RssCore(lock, options_.cores);
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
    c_batches_->Inc(core, 1);
    g_batch_->Set(core, n);  // hwm tracks the largest drain.
    // One clock read per drained batch: every request in it is stamped
    // with the drain's time (lease stamp, granted_at, recorder entries).
    c.now = substrate_.Now();
    for (std::size_t i = 0; i < n; ++i) Process(core, c, buf[i], c.now);
    processed += n;
  }
  // Flush staged grants before acknowledging the requests as processed, so
  // WaitQuiesce implies every completion is visible in its client ring.
  if (any) FlushStaged(core);
  if (processed != 0) {
    processed_.fetch_add(processed, std::memory_order_release);
  }
  if (any) {
    g_mailbox_depth_->Set(core, MailboxDepthApprox(core));
  } else if (g_mailbox_depth_->shard_value(core) != 0) {
    g_mailbox_depth_->Set(core, 0);
  }
  return any;
}

void RtLockService::Process(int core_idx, Core& core, const RtRequest& req,
                            SimTime now) {
  if (req.op == RtRequest::Op::kAcquire) {
    c_requests_->Inc(core_idx, 1);
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
      c_cancel_removed_->Inc(core_idx, removed.removed);
      if (removed.removed_granted != 0) {
        c_cancel_removed_granted_->Inc(core_idx, removed.removed_granted);
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
      c_releases_->Inc(core_idx, 1);
      if (recorder_ != nullptr) {
        recorder_->Record(core_idx, FlightRecorder::Op::kRelease, req.lock,
                          req.mode, req.txn, now, req.client);
      }
      AppendEvent(core, release_seq, RtEvent::Kind::kRelease, req.lock,
                  req.mode, req.txn);
      break;
    case ReleaseOutcome::kStale:
      c_stale_releases_->Inc(core_idx, 1);
      if (recorder_ != nullptr) {
        recorder_->Record(core_idx, FlightRecorder::Op::kStaleRelease,
                          req.lock, req.mode, req.txn, now, req.client);
      }
      break;
    case ReleaseOutcome::kMismatched:
      c_mismatched_releases_->Inc(core_idx, 1);
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
  svc.c_grants_->Inc(core, 1);
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
  (reason == AbortReason::kWound ? svc.c_wounds_ : svc.c_aborts_)
      ->Inc(core, 1);
  if (svc.recorder_ != nullptr) {
    svc.recorder_->Record(core, FlightRecorder::Op::kAbort, lock, slot.mode,
                          slot.txn_id, c.now,
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
    c_flushes_->Inc(core, 1);
    c_staged_completions_->Inc(core, buf.size());
    buf.clear();
  }
}

RtLockService::Stats RtLockService::CoreStats(int core) const {
  Stats s;
  s.requests = c_requests_->shard_value(core);
  s.grants = c_grants_->shard_value(core);
  s.releases = c_releases_->shard_value(core);
  s.stale_releases = c_stale_releases_->shard_value(core);
  s.mismatched_releases = c_mismatched_releases_->shard_value(core);
  s.batches = c_batches_->shard_value(core);
  s.max_batch = g_batch_->shard_high_water(core);
  s.flushes = c_flushes_->shard_value(core);
  s.staged_completions = c_staged_completions_->shard_value(core);
  s.aborts = c_aborts_->shard_value(core);
  s.wounds = c_wounds_->shard_value(core);
  s.cancel_removed = c_cancel_removed_->shard_value(core);
  s.cancel_removed_granted =
      c_cancel_removed_granted_->shard_value(core);
  return s;
}

RtLockService::Stats RtLockService::TotalStats() const {
  Stats total;
  total.requests = c_requests_->value();
  total.grants = c_grants_->value();
  total.releases = c_releases_->value();
  total.stale_releases = c_stale_releases_->value();
  total.mismatched_releases = c_mismatched_releases_->value();
  total.batches = c_batches_->value();
  total.max_batch = g_batch_->high_water();
  total.flushes = c_flushes_->value();
  total.staged_completions = c_staged_completions_->value();
  total.aborts = c_aborts_->value();
  total.wounds = c_wounds_->value();
  total.cancel_removed = c_cancel_removed_->value();
  total.cancel_removed_granted =
      c_cancel_removed_granted_->value();
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
