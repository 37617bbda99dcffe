// Open-loop load generator: transactions arrive by a Poisson process at a
// configured offered rate, independent of completions — unlike the
// closed-loop TxnEngine, queueing delay shows up as latency rather than
// reduced arrival rate. This is how the paper's DPDK clients stress the
// systems, and what a latency-vs-offered-load curve needs.
//
// Each in-flight transaction is its own TxnState, driven through the
// acquire→hold→release transitions by the shared TxnDriver, so one engine
// can have many transactions outstanding (bounded by `max_outstanding` to
// keep overload runs finite). This class is only the open-loop scheduling:
// arrivals, shedding, think time, and committing empty lock sets. Aborts
// and wounds drop the transaction; there is no retry loop.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "client/client.h"
#include "client/txn_driver.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stats.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace netlock {

struct OpenLoopConfig {
  /// Offered transaction arrival rate (transactions/second).
  double offered_tps = 100'000.0;
  /// Hold time once all locks are granted.
  SimTime think_time = 5 * kMicrosecond;
  /// Arrivals beyond this many in-flight transactions are dropped and
  /// counted (the overload signal).
  std::uint32_t max_outstanding = 256;
  Priority priority = 0;
  /// Acquire in workload order (no conflict-unit sort) — deadlock-prone on
  /// purpose; see TxnEngineConfig::preserve_workload_order.
  bool preserve_workload_order = false;
};

class OpenLoopEngine {
 public:
  OpenLoopEngine(Simulator& sim, LockSession& session,
                 std::unique_ptr<WorkloadGenerator> workload,
                 std::uint32_t engine_id, std::uint64_t seed,
                 OpenLoopConfig config);

  OpenLoopEngine(const OpenLoopEngine&) = delete;
  OpenLoopEngine& operator=(const OpenLoopEngine&) = delete;

  /// Starts the arrival process.
  void Start();

  /// Stops new arrivals; in-flight transactions complete.
  void Stop() { stopped_ = true; }

  void SetRecording(bool on) { recording_ = on; }

  /// Changes the offered arrival rate mid-run (takes effect from the next
  /// scheduled gap). Drives flash-crowd scenario phases.
  void set_offered_tps(double tps) {
    NETLOCK_CHECK(tps > 0.0);
    config_.offered_tps = tps;
  }

  RunMetrics& metrics() { return driver_.metrics(); }
  std::uint64_t dropped_arrivals() const { return dropped_; }
  std::uint32_t outstanding() const {
    return static_cast<std::uint32_t>(in_flight_.size());
  }
  std::uint64_t wounds() const { return driver_.counters().wounds; }

  /// The shared txn-id layout (see MakeTxnId in client/txn_driver.h).
  static constexpr int kCounterBits = kTxnCounterBits;
  static TxnId MakeTxnId(std::uint32_t engine_id, std::uint64_t counter) {
    return netlock::MakeTxnId(engine_id, counter);
  }

 private:
  void ScheduleNextArrival();
  void BeginTxn();
  void AcquireNext(TxnId txn_id);
  void OnResult(TxnId txn_id, AcquireResult result);
  void Commit(TxnId txn_id);
  void OnWound(LockId lock, TxnId txn_id);

  Simulator& sim_;
  LockSession& session_;
  std::unique_ptr<WorkloadGenerator> workload_;
  Rng rng_;
  OpenLoopConfig config_;
  TxnDriver<LockSessionSink> driver_;
  TxnIdSource ids_;

  std::unordered_map<TxnId, TxnState> in_flight_;
  std::uint64_t dropped_ = 0;
  bool stopped_ = false;
  bool recording_ = false;
};

}  // namespace netlock
