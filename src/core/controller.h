// Self-driving control plane: continuous demand-tracking reallocation.
//
// The paper's control plane (Section 4.3) solves the knapsack once; this
// module closes the loop. Every `interval` the controller harvests the
// per-window demand counters (ControlPlane::CombinedDemands), folds them
// into an EWMA model, incrementally re-solves the allocation seeded from
// what is installed (IncrementalKnapsack — the POP trace-tree idiom:
// recompute only the slice whose demand moved), and issues
// ApplyAllocation / RehomeLock migrations. Three dampers keep it from
// thrashing on a stationary workload:
//
//   * hysteresis — EWMA-smoothed rates plus an incumbency boost: a
//     challenger must beat an installed lock's density by a margin to
//     displace it, and an incumbent is demoted only when it falls below
//     the matching eviction threshold;
//   * dwell — a lock that just migrated is frozen (kept where it is, in
//     or out) for `min_dwell`, and each tick moves at most
//     `migration_budget` locks;
//   * a migration-cost model — a promotion runs only when the request
//     rate it would shift onto the switch over `payback_horizon` exceeds
//     the drain cost (current server queue depth x per-entry cost plus a
//     fixed pause/install charge).
//
// Every decision is counted under "ctrl.*" in the MetricsRegistry, so the
// TimeSeriesSampler can chart controller activity next to the data plane.
//
// Substrate split: ControllerCore (model + planner) is pure and clocked by
// the caller — here the simulator-driven SelfDrivingController.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/memory_alloc.h"
#include "core/sharding.h"
#include "sim/simulator.h"

namespace netlock {

struct ControllerConfig {
  /// Harvest-and-replan period.
  SimTime interval = 5 * kMillisecond;
  /// Observe-only ticks before the first migration: the EWMA needs a few
  /// windows before its rates mean anything.
  int warmup_ticks = 3;
  /// EWMA weight of the newest window (1.0 = no smoothing).
  double ewma_alpha = 0.5;
  /// Model entries whose smoothed rate decays below this are dropped.
  double rate_floor = 1.0;
  /// A migrated lock is frozen in place for this long (hysteresis dwell).
  SimTime min_dwell = 20 * kMillisecond;
  /// Max switch<->server moves per tick (a resize counts as two).
  int migration_budget = 16;
  /// IncrementalKnapsack hysteresis (see IncrementalPolicy).
  double incumbent_boost = 1.3;
  std::uint32_t min_resize_delta = 2;
  /// Cost model: a promotion must shift at least as many requests onto the
  /// switch over this horizon as the migration costs.
  double payback_horizon_sec = 0.05;
  /// Cost per entry queued at the server when the drain starts (each is a
  /// request the pause delays) ...
  double drain_cost_per_entry = 2.0;
  /// ... plus a fixed pause/install charge, in request-equivalents.
  double fixed_migration_cost = 8.0;
};

/// Decision counters, mirrored 1:1 into "ctrl.*" registry counters.
struct ControllerStats {
  std::uint64_t ticks = 0;
  std::uint64_t reallocs = 0;    ///< Ticks that issued an ApplyAllocation.
  std::uint64_t promotions = 0;  ///< Locks moved server -> switch.
  std::uint64_t demotions = 0;   ///< Locks moved switch -> server.
  std::uint64_t resizes = 0;     ///< Installed locks re-sized.
  std::uint64_t rehomes = 0;     ///< Cross-rack migrations issued.
  std::uint64_t skipped_busy = 0;    ///< Ticks with a batch still draining.
  std::uint64_t skipped_dwell = 0;   ///< Moves frozen by min_dwell.
  std::uint64_t skipped_cost = 0;    ///< Promotions failing the cost model.
  std::uint64_t skipped_budget = 0;  ///< Moves beyond migration_budget.
};

/// EWMA demand model + incremental planner. Pure: no clock, no I/O — the
/// driver feeds it harvested windows and asks for a plan. One instance per
/// rack (demand windows are per control plane).
class ControllerCore {
 public:
  explicit ControllerCore(const ControllerConfig& config);

  /// Folds one harvested window into the EWMA model. `incumbents` marks
  /// which locks are currently switch-resident (they decay instead of
  /// vanishing when a window misses them). Entries below rate_floor drop.
  void Observe(const std::vector<LockDemand>& window,
               const Allocation& installed);

  /// The planner's one step: re-solve incrementally from `installed` and
  /// return the damped target. `queue_depth(lock)` feeds the cost model
  /// (entries waiting at the lock's server). Updates per-lock dwell stamps
  /// for every move the plan keeps and accumulates skip counters into
  /// `stats`. Returns true when `target` differs from `installed`.
  bool Plan(const Allocation& installed, std::uint32_t capacity, SimTime now,
            const std::function<std::size_t(LockId)>& queue_depth,
            Allocation* target, ControllerStats* stats);

  /// Smoothed per-lock demands, sorted by lock id (the dirty slice).
  std::vector<LockDemand> SmoothedDemands() const;
  /// Sum of smoothed rates (rack load, for the re-home balancer).
  double TotalRate() const;
  /// Hottest eligible lock by smoothed rate, skipping frozen locks;
  /// false if none qualifies.
  bool HottestUnfrozen(SimTime now, const std::function<bool(LockId)>& eligible,
                       LockId* lock) const;
  /// Stamps a lock's dwell clock (used for cross-rack re-homes too).
  void MarkMoved(LockId lock, SimTime now);
  bool Frozen(LockId lock, SimTime now) const;

 private:
  struct Entry {
    double rate = 0.0;        ///< EWMA of the windowed request rate.
    double contention = 1.0;  ///< EWMA of the contention counter.
  };

  ControllerConfig config_;
  /// Ordered so every iteration (slice build, hottest pick) is
  /// deterministic regardless of observation order.
  std::map<LockId, Entry> model_;
  std::map<LockId, SimTime> last_move_;
};

/// The simulator-clocked driver: one ControllerCore per rack, ticking on
/// sim.Schedule. Construct after the topology, Start() once engines run.
class SelfDrivingController {
 public:
  SelfDrivingController(Simulator& sim, ShardedNetLock& sharded,
                        ControllerConfig config = ControllerConfig{});
  ~SelfDrivingController();  // Out-of-line: CtrlMetrics is incomplete here.

  void Start();
  /// Stops future ticks (in-flight migrations finish on their own).
  void Stop();

  bool running() const { return running_; }
  const ControllerConfig& config() const { return config_; }
  /// Aggregate decision counters across racks (also in "ctrl.*").
  const ControllerStats& stats() const { return stats_; }
  ControllerCore& core(int rack) { return *cores_[rack]; }

 private:
  void Tick();
  void TickRack(int rack);
  void BalanceRacks();

  Simulator& sim_;
  ShardedNetLock& sharded_;
  ControllerConfig config_;
  std::vector<std::unique_ptr<ControllerCore>> cores_;
  std::vector<int> warmup_left_;
  ControllerStats stats_;
  bool running_ = false;
  std::uint64_t generation_ = 0;  ///< Invalidates scheduled ticks on Stop.

  struct CtrlMetrics;
  std::unique_ptr<CtrlMetrics> metrics_;
};

}  // namespace netlock
