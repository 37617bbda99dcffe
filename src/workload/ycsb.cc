#include "workload/ycsb.h"

#include "common/check.h"

namespace netlock {

YcsbWorkload::YcsbWorkload(YcsbConfig config)
    : config_(config), zipf_(config.num_keys, config.zipf_alpha) {
  NETLOCK_CHECK(config_.num_keys >= 1);
  NETLOCK_CHECK(config_.keys_per_txn >= 1);
  NETLOCK_CHECK(config_.write_fraction >= 0.0 &&
                config_.write_fraction <= 1.0);
}

void YcsbWorkload::NextInto(Rng& rng, TxnSpec& out) {
  out.locks.clear();
  out.locks.reserve(config_.keys_per_txn);
  for (std::uint32_t i = 0; i < config_.keys_per_txn; ++i) {
    LockRequest req;
    req.lock = config_.first_key + static_cast<LockId>(zipf_.Sample(rng));
    req.mode = rng.NextBool(config_.write_fraction) ? LockMode::kExclusive
                                                    : LockMode::kShared;
    out.locks.push_back(req);
  }
  NormalizeTxn(out);
}

}  // namespace netlock
