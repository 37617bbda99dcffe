#include "client/txn.h"

#include "common/check.h"

namespace netlock {

TxnEngine::TxnEngine(Simulator& sim, LockSession& session,
                     std::unique_ptr<WorkloadGenerator> workload,
                     std::uint32_t engine_id, std::uint64_t seed,
                     TxnEngineConfig config)
    : sim_(sim),
      session_(session),
      workload_(std::move(workload)),
      rng_(seed),
      config_(config),
      driver_(LockSessionSink{&session}),
      ids_{engine_id},
      commits_metric_(
          &sim.context().metrics().Counter("client.txn_commits")),
      grants_metric_(
          &sim.context().metrics().Counter("client.lock_grants")) {
  NETLOCK_CHECK(workload_ != nullptr);
  // No-op on backends without a deadlock policy (default implementation).
  session_.set_wound_observer(
      [this](LockId lock, TxnId txn) { OnWound(lock, txn); });
}

void TxnEngine::Start() { StartNextTxn(); }

void TxnEngine::Restart() {
  NETLOCK_CHECK(idle_);
  stopped_ = false;
  StartNextTxn();
}

void TxnEngine::StartNextTxn() {
  if (stopped_ || (config_.max_txns != 0 &&
                   driver_.counters().commits >= config_.max_txns)) {
    idle_ = true;
    return;
  }
  idle_ = false;
  // Drawn into the session's spec: a steady-state transaction reuses its
  // storage instead of allocating a fresh lock set.
  workload_->NextInto(rng_, txn_.spec);
  // preserve_workload_order is deadlock-prone on purpose: it keeps the
  // workload's (unordered) sequence so conflicting transactions can wait on
  // each other in a cycle — the scenario the deadlock policies exist to
  // break.
  if (!config_.preserve_workload_order) {
    OrderLockSet(txn_.spec.locks,
                 [this](LockId lock) { return session_.ConflictUnit(lock); });
  }
  BeginAttempt();
}

void TxnEngine::BeginAttempt() {
  driver_.Begin(txn_, ids_.Next(), sim_.now());
  AcquireNext();
}

void TxnEngine::AcquireNext() {
  const LockRequest& req = driver_.Issue(txn_, sim_.now(), recording_);
  session_.Acquire(req.lock, req.mode, txn_.id, config_.priority,
                   [this, txn = txn_.id](AcquireResult result) {
                     OnAcquireResult(txn, result);
                   });
}

void TxnEngine::OnAcquireResult(TxnId txn, AcquireResult result) {
  if (result != AcquireResult::kGranted) {
    if (driver_.Abort(txn_, txn, recording_)) ScheduleRetry();
    return;
  }
  const GrantStep step = driver_.Grant(txn_, txn, sim_.now(), recording_);
  if (step == GrantStep::kStale) return;
  grants_metric_->Inc();
  if (step == GrantStep::kAcquireNext) {
    AcquireNext();
    return;
  }
  // All locks held: execute, then commit. A wound during think time ends
  // the attempt, and the driver then drops this commit as stale, so it
  // cannot release locks the retry is re-acquiring.
  if (config_.think_time == 0) {
    Commit(txn);
  } else {
    sim_.Schedule(config_.think_time, [this, txn]() { Commit(txn); });
  }
}

void TxnEngine::Commit(TxnId txn) {
  if (!driver_.Commit(txn_, txn, sim_.now(), recording_)) return;
  commits_metric_->Inc();
  if (commit_counter_ != nullptr) commit_counter_->Inc();
  if (config_.inter_txn_gap == 0) {
    StartNextTxn();
  } else {
    sim_.Schedule(config_.inter_txn_gap, [this]() { StartNextTxn(); });
  }
}

void TxnEngine::OnWound(LockId lock, TxnId txn) {
  if (driver_.Wound(txn_, txn, lock, recording_)) ScheduleRetry();
}

void TxnEngine::ScheduleRetry() {
  sim_.Schedule(config_.abort_backoff, [this]() {
    if (stopped_) {
      idle_ = true;
      return;
    }
    BeginAttempt();
  });
}

}  // namespace netlock
