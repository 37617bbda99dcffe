// Real-time, core-sharded lock service.
//
// The wall-clock twin of the simulated LockServer, shaped like the
// prototype's DPDK server (Section 5, ~2.25 MRPS/core): N worker cores,
// shared-nothing per-core state, and RSS-style lock->core hashing so every
// lock is owned by exactly one core and the protocol state needs no locks.
// Requests travel from client threads to cores over SPSC rings (one per
// (core, client) pair), are drained in batches, and run through the same
// LockEngine the simulator's LockServer uses — the protocol logic is
// compiled once, not forked. Like a DPDK server paying its fixed costs
// once per receive burst, a core reads the clock once per drained batch
// and stamps every request in it with that time (lease stamp, granted_at,
// recorder entries). Blocked acquires park in the engine's per-lock
// wait queue (no core ever spins on a held lock); grants flow back through
// per-(client, core) completion rings.
//
// Observability: every per-request statistic lives in the service's own
// MetricsRegistry with one shard per core (each core writes only its own
// cache-line-isolated cells, a relaxed load and store — no shared atomic
// RMW on the hot path). Live readers (the stats poller, netlock_top)
// aggregate the shards while the workers run; whoever owns the run folds
// the registry into its context with MergeFrom after Stop(), as the
// harness's rt rig does for both the service and the client pool. A
// FlightRecorder ring
// (owned by default, injectable for tests) keeps the last few thousand
// protocol events per core for crash/violation autopsy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/types.h"
#include "core/lock_engine.h"
#include "rt/aligned_buf.h"
#include "rt/executor.h"
#include "rt/spsc_ring.h"
#include "substrate/execution_substrate.h"

namespace netlock::rt {

struct RtRequest {
  enum class Op : std::uint8_t {
    kAcquire = 0,
    kRelease = 1,
    /// Remove every queue entry of (lock, txn) — granted or not — without
    /// completing it. Sent after a deadlock-policy abort while an acquire
    /// was still queued. Idempotent; no completion is produced.
    kCancel = 2,
  };
  Op op = Op::kAcquire;
  LockMode mode = LockMode::kExclusive;
  LockId lock = kInvalidLock;
  TxnId txn = kInvalidTxn;
  std::uint32_t client = 0;  ///< Client-thread index; grants return there.
};

struct RtCompletion {
  enum class Status : std::uint8_t {
    kGranted = 0,
    kAborted = 1,  ///< Deadlock policy refused or revoked the entry.
  };
  LockId lock = kInvalidLock;
  LockMode mode = LockMode::kExclusive;
  TxnId txn = kInvalidTxn;
  /// Substrate time of the worker's drain that issued the grant: one
  /// clock read per drained ring batch stamps every request in it, so a
  /// cascade grant carries the time of the drain whose release enabled it.
  SimTime granted_at = 0;
  Status status = Status::kGranted;
  /// Valid when status == kAborted: why (no-wait / wait-die / wound).
  AbortReason reason = AbortReason::kNoWait;
};

/// Engine-level event, recorded per core and merged by sequence number —
/// a linearization of the real-time grant stream that the single-threaded
/// LockOracle can replay after the run (mutual exclusion + FIFO checks).
struct RtEvent {
  enum class Kind : std::uint8_t {
    kAccept = 0,
    kGrant = 1,
    kRelease = 2,
    /// Every queue entry of (lock, txn) removed — policy refusal, wound,
    /// or client cancel. Replay drops any holder state for the pair.
    kAbort = 3,
  };
  std::uint64_t seq = 0;
  Kind kind = Kind::kAccept;
  LockId lock = kInvalidLock;
  LockMode mode = LockMode::kExclusive;
  TxnId txn = kInvalidTxn;
};

class RtLockService {
 public:
  struct Options {
    int cores = 2;
    int num_clients = 1;  ///< Client threads that will call SubmitBatch/Poll.
    /// Max requests drained from one mailbox per visit.
    std::size_t drain_batch = 64;
    bool record_events = false;  ///< Oracle replay log (test builds).
    /// Worker idle tuning, forwarded to RtExecutor::Options. The defaults
    /// spin aggressively (dedicated-host latency mode); park-eager
    /// settings (spin_rounds ~0, longer park_timeout) suit shared or
    /// oversubscribed hosts, where spinning burns someone else's CPU and
    /// every submit-side doorbell is a real futex wake.
    int spin_rounds = 256;
    int yield_rounds = 16;
    std::chrono::microseconds park_timeout{100};
    /// Flight recorder on the hot path. On by default (a record is a few
    /// plain stores); `--telemetry=off` benches disable it to measure the
    /// overhead. An external `recorder` overrides ownership either way
    /// (the fuzzer and violation tests inject one they keep after Stop).
    bool telemetry = true;
    FlightRecorder* recorder = nullptr;
    /// Deadlock-handling policy applied by every core's engine.
    DeadlockPolicy deadlock_policy = DeadlockPolicy::kNone;
  };

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t grants = 0;
    std::uint64_t releases = 0;
    std::uint64_t stale_releases = 0;
    std::uint64_t mismatched_releases = 0;
    std::uint64_t batches = 0;    ///< Nonempty mailbox drains.
    std::uint64_t max_batch = 0;  ///< Largest single drain.
    std::uint64_t flushes = 0;    ///< Staged-completion flushes.
    std::uint64_t staged_completions = 0;  ///< Grants that were staged.
    std::uint64_t aborts = 0;  ///< no-wait / wait-die refusals.
    std::uint64_t wounds = 0;  ///< Entries revoked by wound-wait.
    std::uint64_t cancel_removed = 0;  ///< Entries removed by kCancel.
    /// Of cancel_removed, how many were already granted (their grant
    /// completion was produced but the client discarded it).
    std::uint64_t cancel_removed_granted = 0;
  };

  RtLockService(Options options, RtSubstrate& substrate);
  ~RtLockService();

  RtLockService(const RtLockService&) = delete;
  RtLockService& operator=(const RtLockService&) = delete;

  void Start();
  /// Drains everything already submitted and stops the workers.
  void Stop();

  /// RSS hash, identical to the simulated LockServer's core dispatch.
  int CoreFor(LockId lock) const;

  /// Pushes `n` requests — all of which must hash to `core` (i.e.
  /// CoreFor(req.lock) == core) — into that core's mailbox with one
  /// release-store per PushBatch and a single doorbell for the whole
  /// flush. Spin-waits (with yields) while the mailbox is full —
  /// backpressure, never loss. Called only from client thread `client`.
  void SubmitBatch(int client, int core, const RtRequest* reqs,
                   std::size_t n);

  /// Called only from client thread `client`; pops up to `max` grants.
  std::size_t PollCompletions(int client, RtCompletion* out,
                              std::size_t max);

  /// Blocks until every submitted request has been processed. Call from a
  /// non-worker thread with producers quiescent (no concurrent submits).
  void WaitQuiesce();

  /// Summed per-core stats. Exact once quiesced.
  Stats TotalStats() const;

  /// One core's slice of the stats (live view; exact once quiesced).
  Stats CoreStats(int core) const;

  /// Queued entries still held across all cores (leak check; call after
  /// Stop()).
  std::size_t TotalQueueDepth() const;

  /// The merged event log (record_events only; call after Stop()).
  std::vector<RtEvent> DrainEvents();

  int cores() const { return options_.cores; }
  int num_clients() const { return options_.num_clients; }

  /// The per-core stats, one shard per core (live readers: poller,
  /// netlock_top; the run's owner merges it into its context after Stop()).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The hot-path flight recorder; nullptr when telemetry is off and no
  /// external recorder was injected.
  FlightRecorder* flight_recorder() const { return recorder_; }

  const RtExecutor& executor() const { return *executor_; }

  /// Approximate request backlog parked in `core`'s mailboxes right now.
  std::size_t MailboxDepthApprox(int core) const;

 private:
  /// One worker core: engine + sink + replay log, padded so cores never
  /// false-share. Counters live in metrics_'s per-core shards.
  struct alignas(64) Core {
    /// Sink bridging the shared LockEngine to the completion rings.
    struct Sink final : public GrantSink {
      void DeliverGrant(LockId lock, const QueueSlot& slot) override;
      void DeliverAbort(LockId lock, const QueueSlot& slot,
                        AbortReason reason) override;
      RtLockService* service = nullptr;
      int core = 0;
    };
    Sink sink;
    std::unique_ptr<LockEngine> engine;
    std::vector<RtEvent> events;
    /// The current drain's clock read; the sink stamps aborts with it.
    SimTime now = 0;
  };

  /// Per-core staging for completions: the sink appends here during the
  /// cascade; ServiceCore flushes per drain, so the cascade never blocks
  /// on a slow client's full completion ring. One cache line per core for
  /// the headers so appends never false-share.
  struct alignas(64) CoreStaging {
    std::vector<std::vector<RtCompletion>> per_client;
  };

  bool ServiceCore(int core);
  /// Pushes core's staged completions into the client rings (PushBatch,
  /// spin-with-yield on full — backpressure outside the engine cascade).
  void FlushStaged(int core);
  /// Runs one drained request; `now` is its batch's one clock read.
  void Process(int core_idx, Core& core, const RtRequest& req, SimTime now);
  /// Stages one completion (grant or abort) for its client's ring.
  void DeliverCompletion(int core, const RtCompletion& comp,
                         std::uint32_t client);
  void RecordEvent(Core& core, RtEvent::Kind kind, LockId lock,
                   LockMode mode, TxnId txn);
  void AppendEvent(Core& core, std::uint64_t seq, RtEvent::Kind kind,
                   LockId lock, LockMode mode, TxnId txn);

  Options options_;
  RtSubstrate& substrate_;
  std::vector<std::unique_ptr<Core>> cores_;
  /// req_rings_[core][client]: client -> core mailboxes.
  std::vector<std::vector<std::unique_ptr<SpscRing<RtRequest>>>> req_rings_;
  /// comp_rings_[client][core]: core -> client completions.
  std::vector<std::vector<std::unique_ptr<SpscRing<RtCompletion>>>>
      comp_rings_;
  /// Per-core drain scratch; each core's region starts on its own cache
  /// line (adjacent regions used to share the boundary line).
  std::unique_ptr<AlignedRegions<RtRequest>> drain_buf_;
  std::vector<std::unique_ptr<CoreStaging>> staging_;  ///< One per core.
  std::unique_ptr<RtExecutor> executor_;
  /// Clients add to submitted_ per flush and workers add to processed_ per
  /// drain; each sits on its own cache line, away from executor_, which
  /// every WakeWorker reads. event_seq_ is worker-written like processed_.
  alignas(64) std::atomic<std::uint64_t> submitted_{0};
  alignas(64) std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> event_seq_{0};

  /// Per-core stats, one registry shard per worker core. Starts a fresh
  /// cache line so the instrument pointers the workers read stay clear of
  /// processed_.
  alignas(64) MetricsRegistry metrics_;
  MetricCounter* c_requests_;
  MetricCounter* c_grants_;
  MetricCounter* c_releases_;
  MetricCounter* c_stale_releases_;
  MetricCounter* c_mismatched_releases_;
  MetricCounter* c_batches_;
  MetricCounter* c_flushes_;  ///< Nonempty staged-completion flushes.
  MetricCounter* c_staged_completions_;  ///< Grants routed via staging.
  MetricCounter* c_aborts_;  ///< no-wait / wait-die refusals.
  MetricCounter* c_wounds_;  ///< wound-wait revocations.
  MetricCounter* c_cancel_removed_;
  MetricCounter* c_cancel_removed_granted_;
  MetricGauge* g_mailbox_depth_;  ///< kSum: backlog across cores.
  MetricGauge* g_batch_;          ///< kMax: hwm = largest drain batch.

  std::unique_ptr<FlightRecorder> owned_recorder_;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace netlock::rt
