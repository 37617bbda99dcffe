// Closed-loop client workers for the real-time backend.
//
// The wall-clock closed loop over the shared 2PL TxnDriver (the simulated
// TxnEngine runs the same driver): each client thread multiplexes several
// closed-loop sessions, each drawing transactions from its own workload
// generator + Rng (seeded exactly like the simulated engines, so the
// per-session request streams are identical across backends), acquiring
// the locks in order, then releasing and committing. Sessions advance only
// when the matching completion appears in the thread's completion ring, so
// one thread drives many concurrent transactions without blocking. A
// thread reads the clock once per nonempty poll, and every completion the
// poll popped shares that reading (its latency sample, its next issue
// time). This class is the rt scheduling around the driver: threads,
// polling, per-core staging of every request the driver emits, and abort
// backoff.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "client/txn_driver.h"
#include "common/stats.h"
#include "common/metrics.h"
#include "common/types.h"
#include "rt/rt_lock_service.h"
#include "substrate/execution_substrate.h"
#include "workload/workload.h"

namespace netlock::rt {

struct RtClientConfig {
  int sessions_per_client = 4;
  /// Transactions each session commits before going idle; 0 = keep issuing
  /// until StopIssuing() (timed benchmark mode).
  std::uint64_t txns_per_session = 0;
  /// Per-session seeds follow the simulated testbed: seed * 1000003 + i.
  std::uint64_t seed = 1;
  /// Always-on sharded latency histograms ("rt.lock_latency",
  /// "rt.txn_latency"), one shard per client thread — what the live stats
  /// poller and netlock_top read. Off for `--telemetry=off` overhead runs;
  /// the RunMetrics recorders (measurement window only) are unaffected.
  bool telemetry = true;
  /// Wall-clock backoff before a policy-aborted transaction retries (same
  /// spec, fresh — younger — txn id).
  SimTime abort_backoff = 100 * kMicrosecond;
};

class RtClientPool {
 public:
  /// `session` is the global session index (unique across client threads),
  /// matching the engine index the simulated Testbed passes its factory.
  using WorkloadFactory =
      std::function<std::unique_ptr<WorkloadGenerator>(int session)>;

  RtClientPool(RtLockService& service, RtSubstrate& substrate,
               RtClientConfig config, WorkloadFactory factory);
  ~RtClientPool();

  RtClientPool(const RtClientPool&) = delete;
  RtClientPool& operator=(const RtClientPool&) = delete;

  /// Launches one thread per service client slot; every session submits
  /// its first acquire immediately.
  void Start();

  /// Timed mode: sessions finish their in-flight transaction and stop.
  void StopIssuing() { stop_.store(true, std::memory_order_release); }

  /// Waits until every session is idle and the client threads have exited.
  /// (Fixed-count mode needs no StopIssuing first.)
  void Join();

  /// Toggles the measurement window (warm-up exclusion).
  void SetRecording(bool on) {
    recording_.store(on, std::memory_order_release);
  }

  /// Merged per-thread metrics. Call after Join().
  RunMetrics Collect() const;

  /// TxnCounters summed across all sessions (unconditional, not gated on
  /// recording). Call after Join().
  std::uint64_t TotalCommits() const { return Sum(&TxnCounters::commits); }
  /// Policy aborts (die + wound).
  std::uint64_t TotalAborts() const { return Sum(&TxnCounters::aborts); }
  /// Held-lock revocations (wound-wait).
  std::uint64_t TotalWounds() const { return Sum(&TxnCounters::wounds); }
  /// Sum of committed transactions' lock-set sizes.
  std::uint64_t TotalCommittedLockGrants() const {
    return Sum(&TxnCounters::committed_lock_grants);
  }

  int num_sessions() const {
    return service_.num_clients() * config_.sessions_per_client;
  }

  /// Client-side telemetry, one registry shard per client thread; the
  /// latency histograms cover the whole run, not just the measurement
  /// window. Empty (no instruments) when config.telemetry is off.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct ClientThread;

  /// TxnDriver sink: stages releases and cancels for the next flush.
  struct StageSink {
    RtClientPool* pool;
    ClientThread* ct;
    void operator()(TxnOp op, const LockRequest& req, TxnId txn) const;
  };

  struct Session {
    Rng rng{1};
    std::unique_ptr<WorkloadGenerator> workload;
    TxnIdSource ids;  ///< Engine id = global session index + 1.
    TxnState txn;
    std::uint64_t committed = 0;
    /// A policy abort (die or wound) ended the attempt; the session resumes
    /// (same spec, fresh txn id) once substrate time reaches retry_at.
    bool backoff = false;
    SimTime retry_at = 0;
  };

  struct ClientThread {
    explicit ClientThread(RtClientPool* pool) : driver(StageSink{pool, this}) {}

    int index = 0;
    int first_session = 0;  ///< Global index of sessions[0].
    std::vector<Session> sessions;
    /// Sessions with backoff set; ResumeBackoffs returns at once while 0
    /// (always, without a deadlock policy).
    std::size_t backoffs = 0;
    /// Per-core submit staging: requests group here by target core and
    /// flush once per poll-loop iteration via RtLockService::SubmitBatch —
    /// one ring publish and one doorbell per flush instead of per request.
    std::vector<std::vector<RtRequest>> staged;
    /// 2PL transitions and this thread's metrics and counters.
    TxnDriver<StageSink> driver;
    std::thread thread;
  };

  void RunClient(ClientThread& ct);
  void BeginTxn(ClientThread& ct, Session& s, SimTime now);
  void SubmitAcquire(ClientThread& ct, Session& s, SimTime now);
  /// Stages a request in its core's buffer for the next flush.
  void Stage(ClientThread& ct, RtRequest::Op op, const LockRequest& req,
             TxnId txn);
  /// Flushes every nonempty per-core staging buffer with SubmitBatch.
  void FlushStaged(ClientThread& ct);
  /// Returns true when the session went idle (txn budget / stop flag).
  /// `now` is the poll's one clock read, shared by every completion it
  /// popped.
  bool OnCompletion(ClientThread& ct, const RtCompletion& comp, SimTime now);
  /// Restarts sessions whose backoff expired (fresh txn id, same spec);
  /// sessions resumed after StopIssuing go idle and bump `idled` instead.
  /// Returns the number resumed.
  std::size_t ResumeBackoffs(ClientThread& ct, std::size_t& idled);
  std::uint64_t Sum(std::uint64_t TxnCounters::*counter) const;

  RtLockService& service_;
  RtSubstrate& substrate_;
  RtClientConfig config_;
  WorkloadFactory factory_;
  MetricsRegistry metrics_;
  /// Null when config.telemetry is off.
  MetricCounter* c_commits_ = nullptr;
  MetricHistogram* h_lock_latency_ = nullptr;
  MetricHistogram* h_txn_latency_ = nullptr;
  std::vector<std::unique_ptr<ClientThread>> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace netlock::rt
