// Execution-backend seam for the harness: run the same micro workload on
// either execution substrate.
//
//   * kSim — the deterministic discrete-event testbed (ServerOnly system:
//     clients -> LockServer over the simulated network), reporting
//     simulated-time throughput;
//   * kRt — the real-time backend (RtClientPool -> RtLockService on worker
//     threads), reporting wall-clock throughput.
//
// Both paths drive the same compiled LockEngine protocol core and draw
// per-session workload streams from identically seeded generators
// (seed * 1000003 + session), so a fixed-count run issues byte-identical
// request sequences on both backends — the basis of the cross-backend
// equivalence tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/sim_context.h"
#include "common/stats.h"
#include "common/timeseries.h"
#include "common/types.h"
#include "rt/rt_lock_service.h"
#include "workload/micro.h"

namespace netlock {

enum class BackendKind {
  kSim = 0,
  kRt = 1,
};

const char* ToString(BackendKind kind);

/// Parses "sim" / "rt" (as passed to --backend=). Returns false on anything
/// else, leaving *out untouched.
bool ParseBackendKind(const std::string& text, BackendKind* out);

struct BackendRunConfig {
  MicroConfig workload;
  std::uint64_t seed = 1;
  /// Total closed-loop sessions (must divide evenly by rt_client_threads).
  int sessions = 8;
  /// Committed transactions per session in fixed-count mode.
  std::uint64_t txns_per_session = 1000;

  /// Deadlock-handling policy at the lock manager (both backends). With
  /// kNone and an unordered workload, runs can deadlock — that is the
  /// point of the policies.
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kNone;
  /// Draw from UnorderedMicroWorkload (deduplicated but shuffled lock
  /// sets) and make the clients acquire in workload order instead of
  /// sorting — the deadlock-prone configuration the policies are tested
  /// under.
  bool unordered_workload = false;

  // Real-time sizing (ignored by the sim backend).
  int rt_cores = 2;
  int rt_client_threads = 2;
  bool rt_record_events = false;  ///< Keep the oracle replay log.
  /// Worker idle tuning (see RtLockService::Options). Negative = keep the
  /// service defaults (spin-aggressive dedicated-host mode).
  int rt_spin_rounds = -1;
  int rt_yield_rounds = -1;
  std::int64_t rt_park_timeout_us = -1;

  // Real-time observability (ignored by the sim backend).
  /// Always-on sharded telemetry + flight recorder + live stats poller
  /// during the measurement window. Off = the bare hot path, for overhead
  /// comparison (`--telemetry=off`).
  bool rt_telemetry = true;
  /// Poller tick (ns). 0 = auto: measure/20, clamped to >= 5 ms.
  SimTime rt_poll_interval = 0;
  /// Non-empty = the poller serves live snapshots on this Unix socket
  /// (netlock_top attaches here).
  std::string rt_stats_socket;
  /// External flight recorder (tests inject one that outlives the service;
  /// it keeps recording the run's protocol events even with rt_telemetry
  /// off).
  FlightRecorder* rt_flight_recorder = nullptr;

  /// Telemetry context the run reports into (the simulated testbed's, or
  /// the rt service and client registries, merged at the end of the run).
  /// nullptr = a private context the run discards.
  SimContext* context = nullptr;
};

struct BackendRunResult {
  /// Client-observed metrics over the recorded window. `duration` is
  /// simulated ns on kSim and wall-clock ns on kRt.
  RunMetrics metrics;
  std::uint64_t commits = 0;         ///< Unconditional (not gated).
  std::uint64_t service_grants = 0;  ///< Grants counted at the service.
  /// Client-observed policy aborts (no-wait / die + wound), unconditional.
  std::uint64_t aborts = 0;
  /// Of those, held-lock revocations (wound-wait only).
  std::uint64_t wounds = 0;
  /// Sum of committed transactions' lock-set sizes. Timing-independent on
  /// fixed-count runs, so the cross-backend tests compare it exactly.
  std::uint64_t committed_lock_grants = 0;
  /// Policy aborts counted at the service (refused acquires + wounds).
  std::uint64_t service_aborts = 0;
  /// Entries still queued at the service after the drain (0 = no leak).
  std::size_t residual_queue_depth = 0;
  double wall_seconds = 0.0;  ///< Measured window wall time (kRt only).
  /// Linearized engine event stream for oracle replay (kRt with
  /// rt_record_events only).
  std::vector<rt::RtEvent> events;
  /// Live time series sampled over the measurement window (kRt timed runs
  /// with rt_telemetry; feeds the report's "time_series" section).
  /// Detached: buckets only, no pointers into the finished run's rig.
  bool has_time_series = false;
  TimeSeriesStore time_series;
  /// Per-core grant totals over the whole run (kRt; per-core MLPS extras).
  std::vector<std::uint64_t> core_grants;
};

/// Runs until every session commits exactly txns_per_session transactions,
/// with recording on throughout. Deterministic request streams: the same
/// config produces the same per-session acquire sequences on both backends.
BackendRunResult RunMicroFixedCount(BackendKind kind,
                                    const BackendRunConfig& config);

/// Warm up for `warmup`, measure for `measure` (simulated ns on kSim,
/// wall-clock ns on kRt), then drain. txns_per_session is ignored.
BackendRunResult RunMicroTimed(BackendKind kind,
                               const BackendRunConfig& config,
                               SimTime warmup, SimTime measure);

}  // namespace netlock
