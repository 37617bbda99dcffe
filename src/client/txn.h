// Closed-loop transaction engine.
//
// Models one client thread of the paper's testbed: it repeatedly draws a
// transaction from a workload generator, acquires its locks in order
// (two-phase locking, growing phase), "executes" for a think time with the
// locks held, releases everything, and moves on. Lock-grant latency and
// transaction latency/throughput feed the evaluation figures. The 2PL
// transitions and their accounting are the shared TxnDriver; this class is
// the closed-loop scheduling around it: think time, inter-transaction gap,
// abort backoff and the commit counters.
#pragma once

#include <cstdint>
#include <memory>

#include "client/client.h"
#include "client/txn_driver.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace netlock {

struct TxnEngineConfig {
  /// Time the transaction holds all its locks ("think time" in Section 4.5:
  /// round trips plus in-memory execution).
  SimTime think_time = 5 * kMicrosecond;
  /// Pause between transactions (0 = fully closed loop).
  SimTime inter_txn_gap = 0;
  /// Backoff before retrying an aborted transaction.
  SimTime abort_backoff = 100 * kMicrosecond;
  Priority priority = 0;
  /// Committed transactions after which the engine goes idle; 0 = keep
  /// issuing until Stop(). Fixed-count runs produce identical per-engine
  /// request streams regardless of timing, which is what lets the
  /// cross-backend tests compare sim and real-time grant counts exactly.
  std::uint64_t max_txns = 0;
  /// Acquire locks in the order the workload emitted them instead of
  /// sorting by conflict unit. Deadlock-prone on purpose: used with the
  /// unordered workloads that exercise the deadlock policies. The workload
  /// must emit specs already deduplicated by conflict unit.
  bool preserve_workload_order = false;
};

class TxnEngine {
 public:
  /// `engine_id` must be unique across all engines in an experiment (it
  /// namespaces transaction ids).
  TxnEngine(Simulator& sim, LockSession& session,
            std::unique_ptr<WorkloadGenerator> workload, std::uint32_t
            engine_id, std::uint64_t seed, TxnEngineConfig config);

  TxnEngine(const TxnEngine&) = delete;
  TxnEngine& operator=(const TxnEngine&) = delete;

  /// Begins issuing transactions.
  void Start();

  /// Stops issuing new transactions; the in-flight one completes.
  void Stop() { stopped_ = true; }

  /// True once stopped and the in-flight transaction has fully completed.
  bool idle() const { return idle_; }

  /// Resumes after Stop(). Precondition: idle() — restarting with a
  /// transaction still in flight would corrupt the acquire sequencing.
  void Restart();

  /// Toggles measurement (warm-up vs measured window).
  void SetRecording(bool on) { recording_ = on; }

  /// Optional second counter bumped with client.txn_commits, so a
  /// TimeSeriesSampler can plot one group of engines apart (Figure 12's
  /// tenants).
  void set_commit_counter(MetricCounter* counter) { commit_counter_ = counter; }

  RunMetrics& metrics() { return driver_.metrics(); }
  const RunMetrics& metrics() const { return driver_.metrics(); }
  std::uint64_t aborts() const { return driver_.counters().aborts; }
  std::uint64_t wounds() const { return driver_.counters().wounds; }
  std::uint64_t committed_lock_grants() const {
    return driver_.counters().committed_lock_grants;
  }

 private:
  void StartNextTxn();
  /// Starts an attempt at txn_.spec under a fresh (younger) txn id.
  void BeginAttempt();
  void AcquireNext();
  void OnAcquireResult(TxnId txn, AcquireResult result);
  void Commit(TxnId txn);
  void OnWound(LockId lock, TxnId txn);
  /// Backoff, then re-run the same spec.
  void ScheduleRetry();

  Simulator& sim_;
  LockSession& session_;
  std::unique_ptr<WorkloadGenerator> workload_;
  Rng rng_;
  TxnEngineConfig config_;
  TxnDriver<LockSessionSink> driver_;
  TxnIdSource ids_;
  TxnState txn_;

  bool stopped_ = false;
  bool idle_ = true;
  bool recording_ = false;
  MetricCounter* commit_counter_ = nullptr;
  /// Registry counters updated unconditionally (not gated on recording):
  /// the TimeSeriesSampler derives throughput-over-time from their deltas,
  /// which must keep counting through warm-up, failure windows, etc.
  MetricCounter* commits_metric_;
  MetricCounter* grants_metric_;
};

}  // namespace netlock
