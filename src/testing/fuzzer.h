// ScheduleFuzzer: deterministic fault-injection fuzzing for the whole
// NetLock stack.
//
// A Schedule is (seed, workload shape, FaultPlan). RunSchedule stands up a
// small rack on its own SimContext, runs seeded closed-loop clients while
// the fault plan fires — network adversary knobs, partitions, lease-expiry
// bursts, switch failover, lock-server crashes — then sanitizes the fabric
// and checks:
//
//   * mutual exclusion (client-side LockOracle),
//   * FIFO order of exclusive grants per (lock, priority class)
//     (switch-side, benign plans only),
//   * liveness: every engine goes idle and a drained backup goes cold once
//     faults stop,
//   * leak freedom: every observed grant is eventually released.
//
// Identical schedules replay byte-identically (RunReport::digest folds the
// full grant stream and network counters). A failing schedule shrinks via
// delta debugging to a minimal plan + workload, and ReplayLine() prints
// the one-liner that reproduces it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flight_recorder.h"
#include "sim/simulator.h"
#include "testing/fault_plan.h"

namespace netlock::testing {

struct WorkloadParams {
  int machines = 2;
  int sessions_per_machine = 2;
  int num_locks = 4;
  std::uint32_t queue_capacity = 64;
  int shared_permille = 0;
  int locks_per_txn = 1;
  /// NetLock racks the lock space shards across (1 = the classic
  /// single-rack testbed). Serialized as "racks=N"; absent in old replay
  /// tokens, which parse as 1.
  int racks = 1;
  /// Deadlock-prone flavor: engines acquire in the (shuffled) workload
  /// order instead of sorted order. Serialized as "unord=1"; absent in old
  /// replay tokens, which parse as 0.
  int unordered = 0;
  /// DeadlockPolicy as its wire value (0 none .. 3 wound_wait). Nonzero
  /// forces an all-server allocation (the switch data plane has no
  /// mid-queue removal). Serialized as "policy=N"; absent parses as 0.
  int policy = 0;
  /// Run with the self-driving controller live (fast tick, short dwell),
  /// so continuous reallocation races the fault plan. Ignored when the
  /// schedule forces an all-server allocation (unordered / policy != 0).
  /// Serialized as "ctrl=1"; absent parses as 0.
  int controller = 0;
  /// Priority classes on the switch (§4.4), 1-3; engine i runs at
  /// priority i % N, so the clients spread over the N classes. Serialized
  /// as "prio=N"; absent parses as 1.
  int priorities = 1;
  SimTime run_time = 30 * kMillisecond;

  friend bool operator==(const WorkloadParams&,
                         const WorkloadParams&) = default;
};

struct Schedule {
  std::uint64_t seed = 1;
  WorkloadParams workload;
  FaultPlan plan;

  /// Workload + plan, without the seed ("m=2;spm=2;...;plan=...").
  std::string SerializeParams() const;
  /// Full round-trippable form ("seed=7;" + SerializeParams()).
  std::string Serialize() const;
  /// Accepts either form; a missing seed keeps the caller's default.
  static bool Parse(std::string_view text, Schedule* out);

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

struct RunReport {
  bool ok = true;
  std::uint64_t grants = 0;
  std::uint64_t violations = 0;
  std::uint64_t fifo_violations = 0;
  /// Stuck waits-for cycles the liveness oracle observed (benign plans
  /// only; faults legitimately stall waiters past the window).
  std::uint64_t stuck_cycles = 0;
  /// Replay fingerprint: folds every switch grant event in order plus the
  /// final network counters. Identical schedules yield identical digests.
  std::uint64_t digest = 0;
  bool engines_idle = true;
  /// Deterministic descriptions of everything that went wrong (empty = ok).
  std::vector<std::string> problems;

  std::string Summary() const;
};

struct FuzzOptions {
  /// Test-only seeded bug: suppress the oracle's view of releases for
  /// txns with txn % bug_txn_mod == 3, so the next grant on the same lock
  /// reports an overlap. Proves the fuzzer catches and shrinks real
  /// violations. 0 = off.
  std::uint64_t bug_txn_mod = 0;
  /// Test-only seeded liveness bug: run the schedule with the deadlock
  /// policy forced to kNone and the lease stretched past the horizon, so
  /// an unordered schedule that genuinely deadlocks stays deadlocked. The
  /// waits-for oracle must then report a stuck cycle (and the engines
  /// never idle). Proves the liveness check catches real deadlocks.
  bool bug_always_wait = false;
  /// Optional flight recorder: the run's protocol events (accepts, grants,
  /// client releases) are recorded into it, shard = rack (releases on
  /// shard 0). netlock_fuzz re-runs a shrunk failing schedule with one
  /// attached and dumps it next to the repro file.
  FlightRecorder* flight_recorder = nullptr;
};

class ScheduleFuzzer {
 public:
  explicit ScheduleFuzzer(std::uint64_t master_seed)
      : master_seed_(master_seed) {}

  /// Deterministically derives schedule `index` from the master seed:
  /// workload shape and a fault-plan flavor (clean, network chaos,
  /// partitions, failover, server crashes, or everything at once).
  Schedule Generate(std::uint64_t index) const;

  /// Runs one schedule to completion and reports.
  static RunReport RunSchedule(const Schedule& schedule,
                               const FuzzOptions& options = FuzzOptions{});

  /// Delta-debugs a failing schedule: ddmin over the fault actions, then
  /// greedy workload reduction. Each probe costs one RunSchedule; at most
  /// `max_runs` probes. Returns the smallest still-failing schedule found.
  static Schedule Shrink(Schedule failing,
                         const FuzzOptions& options = FuzzOptions{},
                         int max_runs = 128);

  /// "netlock_fuzz --seed=7 --plan='...'" — reproduces the schedule.
  static std::string ReplayLine(const Schedule& schedule);

 private:
  std::uint64_t master_seed_;
};

}  // namespace netlock::testing
