#include "workload/scenario.h"

#include <utility>

#include "common/check.h"

namespace netlock {

namespace {
constexpr double kHotZipfAlpha = 0.99;  ///< Skew inside the hot window.
/// The hot window's base moves on by kDriftStep every kDriftEveryTxns.
constexpr std::uint64_t kDriftEveryTxns = 200;
constexpr LockId kDriftStep = 16;
}  // namespace

ScenarioWorkload::ScenarioWorkload(ScenarioConfig config)
    : config_(config), hot_zipf_(config.hot_set_size, kHotZipfAlpha) {
  NETLOCK_CHECK(config_.num_locks >= 1);
  NETLOCK_CHECK(config_.hot_set_size >= 1);
  NETLOCK_CHECK(config_.hot_set_size <= config_.num_locks);
  NETLOCK_CHECK(config_.locks_per_txn >= 1);
  NETLOCK_CHECK(config_.hot_fraction >= 0.0 && config_.hot_fraction <= 1.0);
  NETLOCK_CHECK(config_.shared_fraction >= 0.0 &&
                config_.shared_fraction <= 1.0);
}

void ScenarioWorkload::NextInto(Rng& rng, TxnSpec& out) {
  if (emitted_ != 0 && emitted_ % kDriftEveryTxns == 0) {
    hot_base_ = static_cast<LockId>((hot_base_ + kDriftStep) %
                                    config_.num_locks);
  }
  ++emitted_;

  out.locks.clear();
  out.locks.reserve(config_.locks_per_txn);
  for (std::uint32_t i = 0; i < config_.locks_per_txn; ++i) {
    LockRequest req;
    if (rng.NextBool(config_.hot_fraction)) {
      // Hot pick: Zipf within the drifting window, wrapping at the end of
      // the lock space so the window never shrinks.
      const LockId offset = static_cast<LockId>(hot_zipf_.Sample(rng));
      req.lock = static_cast<LockId>((hot_base_ + offset) % config_.num_locks);
    } else {
      req.lock = static_cast<LockId>(rng.NextBounded(config_.num_locks));
    }
    req.mode = rng.NextBool(config_.shared_fraction) ? LockMode::kShared
                                                     : LockMode::kExclusive;
    out.locks.push_back(req);
  }
  NormalizeTxn(out);
  if (config_.unordered) {
    for (std::size_t i = out.locks.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(rng.NextBounded(i));
      std::swap(out.locks[i - 1], out.locks[j]);
    }
  }
}

}  // namespace netlock
