#include "baselines/drtm.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

namespace {
/// Exponential retry backoff: full jitter under base << attempt, capped.
constexpr SimTime kBackoffBase = 4 * kMicrosecond;
constexpr SimTime kBackoffCap = 512 * kMicrosecond;
/// CAS-retry budget before reporting failure: fail-and-retry cannot
/// detect deadlock, so the transaction layer must abort and release.
constexpr std::uint32_t kMaxAttempts = 512;
}  // namespace

DrtmManager::DrtmManager(Network& net, int num_servers, LockId lock_space)
    : net_(net) {
  NETLOCK_CHECK(num_servers >= 1);
  const std::size_t words_per_server =
      static_cast<std::size_t>(lock_space) / num_servers + 1;
  for (int i = 0; i < num_servers; ++i) {
    nics_.push_back(
        std::make_unique<RdmaNic>(net_, words_per_server));
  }
}

NodeId DrtmManager::NicNodeFor(LockId lock) const {
  return nics_[lock % nics_.size()]->node();
}

std::uint32_t DrtmManager::AddrFor(LockId lock) const {
  return lock / static_cast<LockId>(nics_.size());
}

std::unique_ptr<LockSession> DrtmManager::CreateSession(
    ClientMachine& machine) {
  return std::make_unique<DrtmSession>(machine, *this, next_owner_id_++);
}

DrtmSession::DrtmSession(ClientMachine& machine, DrtmManager& manager,
                         std::uint32_t owner_id)
    : machine_(machine),
      manager_(manager),
      endpoint_(machine.net()),
      owner_id_(owner_id),
      rng_(0x5eedull * owner_id + 17) {}

SimTime DrtmSession::Backoff(std::uint32_t attempt) {
  // Exponential with full jitter, capped.
  const SimTime ceiling = std::min<SimTime>(
      kBackoffCap, kBackoffBase << std::min<std::uint32_t>(attempt, 10));
  return 1 + rng_.NextBounded(ceiling);
}

void DrtmSession::Acquire(LockId lock, LockMode mode, TxnId /*txn*/,
                          Priority /*priority*/, AcquireCallback cb) {
  if (mode == LockMode::kExclusive) {
    TryExclusive(lock, 0, std::move(cb));
  } else {
    TryShared(lock, 0, std::move(cb));
  }
}

void DrtmSession::TryExclusive(LockId lock, std::uint32_t attempt,
                               AcquireCallback cb) {
  if (attempt > kMaxAttempts) {
    cb(AcquireResult::kTimeout);
    return;
  }
  const std::uint64_t mine = static_cast<std::uint64_t>(owner_id_) << 32;
  endpoint_.CompareAndSwap(
      manager_.NicNodeFor(lock), manager_.AddrFor(lock), /*compare=*/0,
      /*swap=*/mine,
      [this, lock, attempt, cb = std::move(cb)](std::uint64_t old) mutable {
        if (old == 0) {
          cb(AcquireResult::kGranted);
          return;
        }
        // Held (by a writer or readers): blind fail-and-retry.
        ++manager_.total_retries_;
        machine_.net().sim().Schedule(
            Backoff(attempt), [this, lock, attempt, cb = std::move(cb)]() mutable {
              TryExclusive(lock, attempt + 1, std::move(cb));
            });
      });
}

void DrtmSession::TryShared(LockId lock, std::uint32_t attempt,
                            AcquireCallback cb) {
  if (attempt > kMaxAttempts) {
    cb(AcquireResult::kTimeout);
    return;
  }
  endpoint_.FetchAndAdd(
      manager_.NicNodeFor(lock), manager_.AddrFor(lock), /*delta=*/1,
      [this, lock, attempt, cb = std::move(cb)](std::uint64_t old) mutable {
        if ((old >> 32) == 0) {
          cb(AcquireResult::kGranted);  // No writer: we are in.
          return;
        }
        // A writer holds the lock: undo our increment and retry.
        ++manager_.total_retries_;
        endpoint_.FetchAndAdd(manager_.NicNodeFor(lock),
                              manager_.AddrFor(lock),
                              /*delta=*/~0ull,  // -1 on the count field.
                              [](std::uint64_t) {});
        machine_.net().sim().Schedule(
            Backoff(attempt), [this, lock, attempt, cb = std::move(cb)]() mutable {
              TryShared(lock, attempt + 1, std::move(cb));
            });
      });
}

void DrtmSession::Release(LockId lock, LockMode mode, TxnId /*txn*/) {
  if (mode == LockMode::kExclusive) {
    // Subtract our owner id from the owner field; FAA keeps concurrent
    // reader-count arithmetic intact (a plain WRITE could erase it).
    const std::uint64_t delta =
        (~(static_cast<std::uint64_t>(owner_id_)) + 1) << 32;
    endpoint_.FetchAndAdd(manager_.NicNodeFor(lock), manager_.AddrFor(lock),
                          delta, [](std::uint64_t) {});
  } else {
    endpoint_.FetchAndAdd(manager_.NicNodeFor(lock), manager_.AddrFor(lock),
                          ~0ull, [](std::uint64_t) {});
  }
}

}  // namespace netlock
