// Microbenchmark workload (paper Section 6.1): "simply generates lock
// requests to a set of locks", used for the Figure 8/9 switch and server
// capability measurements.
#pragma once

#include "workload/workload.h"

namespace netlock {

struct MicroConfig {
  /// Size of the lock set the clients contend on.
  LockId num_locks = 1000;
  /// First lock id (lets disjoint client groups target disjoint sets).
  LockId first_lock = 0;
  /// Fraction of requests that are shared (1.0 = shared-lock experiment,
  /// 0.0 = exclusive-lock experiment).
  double shared_fraction = 0.0;
  /// Locks per transaction (1 = pure lock-request stream).
  std::uint32_t locks_per_txn = 1;
  /// Zipf skew over the lock set; 0 = uniform.
  double zipf_alpha = 0.0;
};

class MicroWorkload final : public WorkloadGenerator {
 public:
  explicit MicroWorkload(MicroConfig config);

  void NextInto(Rng& rng, TxnSpec& out) override;
  LockId lock_space() const override {
    return config_.first_lock + config_.num_locks;
  }

  const MicroConfig& config() const { return config_; }

 private:
  MicroConfig config_;
  ZipfSampler zipf_;
};

/// Deadlock-prone variant of MicroWorkload: the same per-lock distribution,
/// but the lock set is deduplicated and then Fisher-Yates-shuffled rather
/// than sorted, so two overlapping transactions can acquire their common
/// locks in opposite orders. Pair with
/// TxnEngineConfig::preserve_workload_order and a DeadlockPolicy — under
/// kNone this workload genuinely deadlocks.
class UnorderedMicroWorkload final : public WorkloadGenerator {
 public:
  explicit UnorderedMicroWorkload(MicroConfig config);

  void NextInto(Rng& rng, TxnSpec& out) override;
  LockId lock_space() const override {
    return config_.first_lock + config_.num_locks;
  }

  const MicroConfig& config() const { return config_; }

 private:
  MicroConfig config_;
  ZipfSampler zipf_;
};

}  // namespace netlock
