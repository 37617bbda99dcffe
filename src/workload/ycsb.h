// YCSB-style workload: zipf-popular keys with a read/write mix.
//
// The standard cloud-serving benchmark shape — reads take shared locks,
// writes exclusive — with the usual knobs: key-space size, zipf skew
// (YCSB's default 0.99), write fraction (A = 0.5, B = 0.05), and keys per
// transaction. Complements the microbenchmark (uniform, mode-split) and
// TPC-C (structured transactions).
#pragma once

#include "common/random.h"
#include "workload/workload.h"

namespace netlock {

struct YcsbConfig {
  LockId num_keys = 100'000;
  double zipf_alpha = 0.99;
  double write_fraction = 0.05;   ///< Workload B; use 0.5 for A.
  std::uint32_t keys_per_txn = 1;
  LockId first_key = 0;
};

class YcsbWorkload final : public WorkloadGenerator {
 public:
  explicit YcsbWorkload(YcsbConfig config);

  void NextInto(Rng& rng, TxnSpec& out) override;
  LockId lock_space() const override {
    return config_.first_key + config_.num_keys;
  }

  const YcsbConfig& config() const { return config_; }

 private:
  YcsbConfig config_;
  ZipfSampler zipf_;
};

}  // namespace netlock
