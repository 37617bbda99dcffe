#include "baselines/dslr.h"

#include "common/check.h"

namespace netlock {

namespace {
/// Report kTimeout to the caller after this many polls (so deadlocked
/// transactions can abort), but keep polling detached: a bakery ticket
/// must still be consumed and released when its turn comes, or every
/// ticket behind it waits forever. DSLR proper uses leases for this.
constexpr std::uint32_t kMaxPolls = 512;
/// Hard cap on detached polling (gives up entirely; the line stalls —
/// the no-lease equivalent of a crashed client).
constexpr std::uint32_t kMaxDetachedPolls = 1u << 16;
}  // namespace

DslrManager::DslrManager(Network& net, int num_servers, LockId lock_space,
                         DslrConfig config)
    : net_(net), config_(config) {
  NETLOCK_CHECK(num_servers >= 1);
  const std::size_t words_per_server =
      static_cast<std::size_t>(lock_space) / num_servers + 1;
  for (int i = 0; i < num_servers; ++i) {
    nics_.push_back(
        std::make_unique<RdmaNic>(net_, words_per_server));
  }
}

NodeId DslrManager::NicNodeFor(LockId lock) const {
  return nics_[lock % nics_.size()]->node();
}

std::uint32_t DslrManager::AddrFor(LockId lock) const {
  return lock / static_cast<LockId>(nics_.size());
}

std::unique_ptr<LockSession> DslrManager::CreateSession(
    ClientMachine& machine) {
  return std::make_unique<DslrSession>(machine, *this);
}

DslrSession::DslrSession(ClientMachine& machine, DslrManager& manager)
    : machine_(machine), manager_(manager), endpoint_(machine.net()) {}

void DslrSession::Acquire(LockId lock, LockMode mode, TxnId /*txn*/,
                          Priority /*priority*/, AcquireCallback cb) {
  StartAcquire(lock, mode, std::move(cb));
}

void DslrSession::StartAcquire(LockId lock, LockMode mode,
                               AcquireCallback cb) {
  // Take a bakery ticket: FAA +1 on the max field of our mode.
  const std::uint64_t delta = mode == LockMode::kExclusive
                                  ? (1ull << 48)
                                  : (1ull << 32);
  auto wait = std::make_shared<Wait>();
  wait->lock = lock;
  wait->mode = mode;
  wait->cb = std::move(cb);
  endpoint_.FetchAndAdd(manager_.NicNodeFor(lock), manager_.AddrFor(lock),
                        delta, [this, wait](std::uint64_t old_word) {
                          OnTicket(wait, old_word);
                        });
}

void DslrSession::OnTicket(std::shared_ptr<Wait> wait,
                           std::uint64_t old_word) {
  const std::uint16_t threshold = manager_.config_.reset_threshold;
  wait->my_x = DslrMaxX(old_word);
  wait->my_s = DslrMaxS(old_word);
  const std::uint16_t my_ticket =
      wait->mode == LockMode::kExclusive ? wait->my_x : wait->my_s;

  if (my_ticket >= threshold || DslrMaxX(old_word) >= threshold ||
      DslrMaxS(old_word) >= threshold) {
    // Counter wraparound region: abandon the ticket. The client that drew
    // exactly the threshold leads the reset; everyone else backs off until
    // the word is re-zeroed, then retries from scratch.
    if (my_ticket == threshold) {
      ++manager_.total_resets_;
      RunResetLeader(wait->lock, threshold);
    }
    WaitForReset(wait);
    return;
  }

  // Bakery grant test against the snapshot the FAA returned.
  const bool granted =
      wait->mode == LockMode::kExclusive
          ? (DslrNowX(old_word) == wait->my_x &&
             DslrNowS(old_word) == wait->my_s)
          : (DslrNowX(old_word) == wait->my_x);
  if (granted) {
    wait->cb(AcquireResult::kGranted);
    return;
  }
  Poll(wait);
}

void DslrSession::Poll(std::shared_ptr<Wait> wait) {
  ++wait->polls;
  if (!wait->detached && wait->polls > kMaxPolls) {
    // Report failure so the transaction can abort, but keep polling
    // detached: the ticket must be consumed and released when granted or
    // the bakery line behind it stalls forever.
    wait->detached = true;
    AcquireCallback cb = std::move(wait->cb);
    cb(AcquireResult::kTimeout);
  }
  if (wait->detached && wait->polls > kMaxDetachedPolls) {
    return;  // Equivalent of a crashed client; DSLR would need a lease.
  }
  ++manager_.total_polls_;
  endpoint_.Read(
      manager_.NicNodeFor(wait->lock), manager_.AddrFor(wait->lock),
      [this, wait](std::uint64_t word) {
        const bool granted =
            wait->mode == LockMode::kExclusive
                ? (DslrNowX(word) == wait->my_x &&
                   DslrNowS(word) == wait->my_s)
                : (DslrNowX(word) == wait->my_x);
        if (granted) {
          if (wait->detached) {
            Release(wait->lock, wait->mode, 0);  // Consume and free.
          } else {
            wait->cb(AcquireResult::kGranted);
          }
          return;
        }
        // Proportional waiting: sleep by our distance in the queue.
        const std::uint32_t dist_x = static_cast<std::uint16_t>(
            wait->my_x - DslrNowX(word));
        const std::uint32_t dist_s =
            wait->mode == LockMode::kExclusive
                ? static_cast<std::uint16_t>(wait->my_s - DslrNowS(word))
                : 0;
        const std::uint64_t distance = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(dist_x) + dist_s);
        const SimTime delay =
            std::max<SimTime>(manager_.config_.base_poll,
                              distance * manager_.config_.per_hold_estimate);
        machine_.net().sim().Schedule(delay, [this, wait]() { Poll(wait); });
      });
}

void DslrSession::WaitForReset(std::shared_ptr<Wait> wait) {
  machine_.net().sim().Schedule(
      manager_.config_.reset_backoff, [this, wait]() {
        endpoint_.Read(
            manager_.NicNodeFor(wait->lock), manager_.AddrFor(wait->lock),
            [this, wait](std::uint64_t word) {
              if (DslrMaxX(word) >= manager_.config_.reset_threshold ||
                  DslrMaxS(word) >= manager_.config_.reset_threshold) {
                WaitForReset(wait);  // Reset still in progress.
                return;
              }
              StartAcquire(wait->lock, wait->mode, std::move(wait->cb));
            });
      });
}

void DslrSession::RunResetLeader(LockId lock, std::uint16_t threshold) {
  // Wait until every ticket issued before the threshold has been served
  // (now_x == threshold and now_s has caught up with max_s as of our last
  // observation), then CAS the word to zero. Tickets drawn past the
  // threshold were abandoned and never advance the now fields.
  endpoint_.Read(
      manager_.NicNodeFor(lock), manager_.AddrFor(lock),
      [this, lock, threshold](std::uint64_t word) {
        if (DslrMaxX(word) < threshold && DslrMaxS(word) < threshold) {
          return;  // Another leader already reset the word.
        }
        const bool drained = DslrNowX(word) == threshold &&
                             DslrNowS(word) == DslrMaxS(word);
        if (!drained) {
          machine_.net().sim().Schedule(
              manager_.config_.base_poll,
              [this, lock, threshold]() {
                RunResetLeader(lock, threshold);
              });
          return;
        }
        endpoint_.CompareAndSwap(
            manager_.NicNodeFor(lock), manager_.AddrFor(lock), word, 0,
            [this, lock, threshold, word](std::uint64_t observed) {
              if (observed == word) return;  // Swap took effect: reset done.
              // CAS lost a race with a concurrent FAA: re-observe, unless
              // another leader already re-zeroed the word.
              if (DslrMaxX(observed) < threshold &&
                  DslrMaxS(observed) < threshold) {
                return;
              }
              RunResetLeader(lock, threshold);
            });
      });
}

void DslrSession::Release(LockId lock, LockMode mode, TxnId /*txn*/) {
  // Advance the now counter of our mode.
  const std::uint64_t delta =
      mode == LockMode::kExclusive ? (1ull << 16) : 1ull;
  endpoint_.FetchAndAdd(manager_.NicNodeFor(lock), manager_.AddrFor(lock),
                        delta, [](std::uint64_t) {});
}

}  // namespace netlock
