// Deadlock-prone scenario workload: a drifting-Zipf hot set layered over a
// uniform cold space, with the per-transaction lock order deliberately left
// unsorted. Models the adversarial conditions the deadlock policies exist
// for — short-lived contention storms where many clients chase the same
// small set of popular locks in different orders (an application-level
// flash crowd). The companion flash-crowd *load* bursts come from the
// driver toggling OpenLoopEngine::set_offered_tps; this class only shapes
// which locks the transactions touch.
#pragma once

#include <cstdint>

#include "workload/workload.h"

namespace netlock {

struct ScenarioConfig {
  /// Total lock space [0, num_locks).
  LockId num_locks = 10000;
  /// Size of the hot window the crowd chases.
  LockId hot_set_size = 16;
  /// Probability a lock pick lands in the hot window (Zipf-0.99 within
  /// it); the rest are uniform over the whole space. The window's base
  /// moves on by 16 locks every 200 transactions this generator emits
  /// (count-based, so replays are deterministic).
  double hot_fraction = 0.8;
  /// Locks per transaction (>= 2 for lock-order cycles to exist).
  std::uint32_t locks_per_txn = 4;
  /// Fraction of shared (reader) requests.
  double shared_fraction = 0.0;
  /// Leave the deduplicated lock set shuffled (deadlock-prone). False
  /// restores the sorted global-order discipline for A/B comparison.
  bool unordered = true;
};

class ScenarioWorkload final : public WorkloadGenerator {
 public:
  explicit ScenarioWorkload(ScenarioConfig config);

  void NextInto(Rng& rng, TxnSpec& out) override;
  LockId lock_space() const override { return config_.num_locks; }

  const ScenarioConfig& config() const { return config_; }
  /// Current hot-window base lock id (drifts as transactions are drawn).
  LockId hot_base() const { return hot_base_; }

 private:
  ScenarioConfig config_;
  ZipfSampler hot_zipf_;
  LockId hot_base_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace netlock
