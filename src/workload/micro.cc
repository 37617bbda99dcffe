#include "workload/micro.h"

#include <utility>

#include "common/check.h"

namespace netlock {

MicroWorkload::MicroWorkload(MicroConfig config)
    : config_(config), zipf_(config.num_locks, config.zipf_alpha) {
  NETLOCK_CHECK(config_.num_locks >= 1);
  NETLOCK_CHECK(config_.locks_per_txn >= 1);
  NETLOCK_CHECK(config_.shared_fraction >= 0.0 &&
                config_.shared_fraction <= 1.0);
}

void MicroWorkload::NextInto(Rng& rng, TxnSpec& out) {
  out.locks.clear();
  out.locks.reserve(config_.locks_per_txn);
  for (std::uint32_t i = 0; i < config_.locks_per_txn; ++i) {
    LockRequest req;
    // ZipfSampler handles alpha == 0 as a single uniform draw itself, so
    // the stream is identical to a direct NextBounded call.
    req.lock = config_.first_lock + static_cast<LockId>(zipf_.Sample(rng));
    req.mode = rng.NextBool(config_.shared_fraction) ? LockMode::kShared
                                                     : LockMode::kExclusive;
    out.locks.push_back(req);
  }
  NormalizeTxn(out);
}

UnorderedMicroWorkload::UnorderedMicroWorkload(MicroConfig config)
    : config_(config), zipf_(config.num_locks, config.zipf_alpha) {
  NETLOCK_CHECK(config_.num_locks >= 1);
  NETLOCK_CHECK(config_.locks_per_txn >= 1);
  NETLOCK_CHECK(config_.shared_fraction >= 0.0 &&
                config_.shared_fraction <= 1.0);
}

void UnorderedMicroWorkload::NextInto(Rng& rng, TxnSpec& out) {
  out.locks.clear();
  out.locks.reserve(config_.locks_per_txn);
  for (std::uint32_t i = 0; i < config_.locks_per_txn; ++i) {
    LockRequest req;
    req.lock = config_.first_lock + static_cast<LockId>(zipf_.Sample(rng));
    req.mode = rng.NextBool(config_.shared_fraction) ? LockMode::kShared
                                                     : LockMode::kExclusive;
    out.locks.push_back(req);
  }
  // Dedup (an engine must never queue the same lock twice within one txn)
  // but then shuffle: the acquisition order is the point of this workload.
  NormalizeTxn(out);
  for (std::size_t i = out.locks.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.NextBounded(i));
    std::swap(out.locks[i - 1], out.locks[j]);
  }
}

}  // namespace netlock
