#include "client/open_loop.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

OpenLoopEngine::OpenLoopEngine(Simulator& sim, LockSession& session,
                               std::unique_ptr<WorkloadGenerator> workload,
                               std::uint32_t engine_id, std::uint64_t seed,
                               OpenLoopConfig config)
    : sim_(sim),
      session_(session),
      workload_(std::move(workload)),
      rng_(seed),
      config_(config),
      driver_(LockSessionSink{&session}),
      ids_{engine_id} {
  NETLOCK_CHECK(workload_ != nullptr);
  NETLOCK_CHECK(config_.offered_tps > 0.0);
  session_.set_wound_observer(
      [this](LockId lock, TxnId txn) { OnWound(lock, txn); });
}

void OpenLoopEngine::Start() { ScheduleNextArrival(); }

void OpenLoopEngine::ScheduleNextArrival() {
  if (stopped_) return;
  const double mean_gap_ns =
      static_cast<double>(kSecond) / config_.offered_tps;
  const SimTime gap =
      std::max<SimTime>(1, static_cast<SimTime>(
                               rng_.NextExponential(mean_gap_ns)));
  sim_.Schedule(gap, [this]() {
    if (stopped_) return;
    BeginTxn();
    ScheduleNextArrival();
  });
}

void OpenLoopEngine::BeginTxn() {
  if (in_flight_.size() >= config_.max_outstanding) {
    ++dropped_;  // Overloaded: shed the arrival.
    return;
  }
  const TxnId txn_id = ids_.Next();
  TxnState txn;
  txn.spec = workload_->Next(rng_);
  if (!config_.preserve_workload_order) {
    OrderLockSet(txn.spec.locks,
                 [this](LockId lock) { return session_.ConflictUnit(lock); });
  }
  driver_.Begin(txn, txn_id, sim_.now());
  const bool empty = txn.spec.locks.empty();
  in_flight_.emplace(txn_id, std::move(txn));
  if (empty) {
    // No locks to take: the transaction is pure think time, then commits.
    if (config_.think_time == 0) {
      Commit(txn_id);
    } else {
      sim_.Schedule(config_.think_time, [this, txn_id]() { Commit(txn_id); });
    }
    return;
  }
  AcquireNext(txn_id);
}

void OpenLoopEngine::AcquireNext(TxnId txn_id) {
  const LockRequest& req =
      driver_.Issue(in_flight_.at(txn_id), sim_.now(), recording_);
  session_.Acquire(req.lock, req.mode, txn_id, config_.priority,
                   [this, txn_id](AcquireResult result) {
                     OnResult(txn_id, result);
                   });
}

void OpenLoopEngine::OnResult(TxnId txn_id, AcquireResult result) {
  const auto it = in_flight_.find(txn_id);
  NETLOCK_CHECK(it != in_flight_.end());
  if (result != AcquireResult::kGranted) {
    // Abort: the driver releases what we hold; drop the transaction.
    driver_.Abort(it->second, txn_id, recording_);
    in_flight_.erase(it);
    return;
  }
  if (driver_.Grant(it->second, txn_id, sim_.now(), recording_) ==
      GrantStep::kAcquireNext) {
    AcquireNext(txn_id);
    return;
  }
  if (config_.think_time == 0) {
    Commit(txn_id);
  } else {
    sim_.Schedule(config_.think_time, [this, txn_id]() { Commit(txn_id); });
  }
}

void OpenLoopEngine::OnWound(LockId lock, TxnId txn_id) {
  const auto it = in_flight_.find(txn_id);
  if (it == in_flight_.end()) return;  // Stale wound: already done.
  driver_.Wound(it->second, txn_id, lock, recording_);
  in_flight_.erase(it);
}

void OpenLoopEngine::Commit(TxnId txn_id) {
  const auto it = in_flight_.find(txn_id);
  // A wound during think time already tore the transaction down.
  if (it == in_flight_.end()) return;
  driver_.Commit(it->second, txn_id, sim_.now(), recording_);
  in_flight_.erase(it);
}

}  // namespace netlock
