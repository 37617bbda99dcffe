// LockOracle: a runtime safety checker for lock-manager integration tests
// and the schedule fuzzer.
//
// Two independent invariants are checked:
//
//  1. Mutual exclusion, observed as the *client* sees it (grant at the
//     callback, release at the send). This ordering is conservative in the
//     safe direction — a grant is observed no earlier than it was issued
//     and a release no later than it takes effect — so any overlap the
//     oracle reports is a real mutual-exclusion violation.
//
//  2. FIFO order of exclusive grants per (lock, priority class), observed
//     at the *switch* (wire the data plane's queue/grant observers to
//     OnSwitchAccept / OnSwitchGrant). Within a class, exclusive grants
//     must come back in admission order — the property Algorithm 2, §4.4's
//     per-class queues and the overflow protocol (Section 4.3) all
//     promise. Only meaningful on fault-free runs: packet loss and lease
//     expiry legitimately reorder grants, so the fuzzer enables this check
//     only for benign fault plans.
#pragma once

#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/check.h"
#include "common/types.h"

namespace netlock::testing {

class LockOracle {
 public:
  /// Lease-aware mode (used by the fuzzer): a hold older than `lease` is
  /// no longer protected — the manager may legitimately force-release it
  /// and grant the lock to someone else (Section 4.5), so it must not be
  /// reported as an overlap. Expiry is lazy (applied only when a
  /// conflicting grant arrives), which keeps TotalHolders() strict for the
  /// leak check. Callers should subtract a small slack from the real lease
  /// to absorb the delivery-delay skew between the switch's clock on the
  /// grant and the client's observation of it.
  void SetLease(SimTime lease, std::function<SimTime()> now) {
    lease_ = lease;
    now_ = std::move(now);
  }

  void OnGrant(LockId lock, LockMode mode, TxnId txn) {
    // A grant that was already wounded server-side (the grant packet was in
    // flight when the wound removed the entry) never takes effect at the
    // client — the session suppresses it — so the oracle must not record a
    // holder for it.
    if (!wounded_.empty()) {
      const auto it = wounded_.find({lock, txn});
      if (it != wounded_.end()) {
        wounded_.erase(it);
        return;
      }
    }
    Holders& holders = held_[lock];
    if (mode == LockMode::kExclusive) {
      if (!holders.shared.empty() || holders.exclusive != kInvalidTxn) {
        ExpireStale(&holders);
      }
      if (!holders.shared.empty() || holders.exclusive != kInvalidTxn) {
        Violation("overlap", lock, txn,
                  holders.exclusive != kInvalidTxn
                      ? holders.exclusive
                      : holders.shared.begin()->first);
        return;
      }
      holders.exclusive = txn;
      holders.exclusive_since = now_ ? now_() : 0;
    } else {
      if (holders.exclusive != kInvalidTxn) ExpireStale(&holders);
      if (holders.exclusive != kInvalidTxn) {
        Violation("shared-over-exclusive", lock, txn, holders.exclusive);
        return;
      }
      holders.shared.insert_or_assign(txn, now_ ? now_() : 0);
    }
    ++grants_;
  }

  void OnRelease(LockId lock, LockMode mode, TxnId txn) {
    const auto it = held_.find(lock);
    if (it == held_.end()) return;
    if (mode == LockMode::kExclusive) {
      if (it->second.exclusive == txn) it->second.exclusive = kInvalidTxn;
    } else {
      it->second.shared.erase(txn);
    }
  }

  // --- Deadlock-policy events (feed from the manager's abort observer) ---

  /// A policy abort (no-wait / wait-die refusal, or any removal of a
  /// never-granted entry): the txn holds nothing for this lock, but a
  /// queued exclusive admission must be purged so the switch-side FIFO
  /// check doesn't wait on it forever.
  void OnAbort(LockId lock, TxnId txn) {
    const auto held = held_.find(lock);
    if (held != held_.end()) {
      if (held->second.exclusive == txn) {
        held->second.exclusive = kInvalidTxn;
      }
      held->second.shared.erase(txn);
    }
    for (auto ord = x_order_.lower_bound({lock, 0});
         ord != x_order_.end() && ord->first.first == lock; ++ord) {
      for (auto pos = ord->second.begin(); pos != ord->second.end(); ++pos) {
        if (*pos == txn) {
          ord->second.erase(pos);
          return;
        }
      }
    }
  }

  /// Wound-wait revoked the entry; it may have been *held*. Drops any
  /// holder state and remembers the pair so an in-flight grant observed
  /// later (client-side lag) is not recorded as a fresh holder. Fire this
  /// from the server-side abort observer, which the engine invokes before
  /// the cascade grants — so the replacement grant never looks like an
  /// overlap with the wounded holder.
  void OnWound(LockId lock, TxnId txn) {
    OnAbort(lock, txn);
    wounded_.insert({lock, txn});
    wounded_fifo_.push_back({lock, txn});
    while (wounded_fifo_.size() > 4096) {
      wounded_.erase(wounded_fifo_.front());
      wounded_fifo_.pop_front();
    }
  }

  // --- Switch-side FIFO order (exclusive grants only, per class) ---

  /// Feed from LockSwitch::set_queue_observer. Retransmitted acquires
  /// (same txn accepted again) are collapsed onto the first admission.
  void OnSwitchAccept(LockId lock, TxnId txn, LockMode mode, Priority cls,
                      bool /*overflowed*/) {
    if (mode != LockMode::kExclusive) return;
    std::deque<TxnId>& order = x_order_[{lock, cls}];
    for (const TxnId t : order) {
      if (t == txn) return;  // Client retransmission: keep first position.
    }
    order.push_back(txn);
  }

  /// Feed from LockSwitch::set_grant_observer. A grant for a txn the
  /// oracle never saw admitted (a ghost grant for a retransmitted entry)
  /// is ignored; a grant that overtakes an earlier admission of its class
  /// is a FIFO violation.
  void OnSwitchGrant(LockId lock, TxnId txn, LockMode mode) {
    if (mode != LockMode::kExclusive) return;
    for (auto it = x_order_.lower_bound({lock, 0});
         it != x_order_.end() && it->first.first == lock; ++it) {
      std::deque<TxnId>& order = it->second;
      if (order.empty()) continue;
      if (order.front() == txn) {
        order.pop_front();
        return;
      }
      for (auto pos = order.begin(); pos != order.end(); ++pos) {
        if (*pos != txn) continue;
        ++fifo_violations_;
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "fifo lock=%llu txn=%llu granted before txn=%llu",
                      static_cast<unsigned long long>(lock),
                      static_cast<unsigned long long>(txn),
                      static_cast<unsigned long long>(order.front()));
        log_.push_back(buf);
        order.erase(pos);
        return;
      }
    }
    // Not admitted through the observer (e.g. ghost grant): ignore.
  }

  std::uint64_t violations() const { return violations_; }
  std::uint64_t fifo_violations() const { return fifo_violations_; }
  std::uint64_t grants() const { return grants_; }
  /// Holds the oracle wrote off as lease-expired when a conflicting grant
  /// arrived (lease-aware mode only). Informational, not a violation.
  std::uint64_t lease_takeovers() const { return lease_takeovers_; }

  /// Deterministic one-line descriptions of every violation, in order.
  const std::vector<std::string>& violation_log() const { return log_; }

  /// Grants the oracle still considers held, across all locks. Zero once a
  /// run has fully drained (every granted lock was released).
  std::size_t TotalHolders() const {
    std::size_t total = 0;
    for (const auto& [lock, holders] : held_) {
      total += holders.shared.size() +
               (holders.exclusive != kInvalidTxn ? 1 : 0);
    }
    return total;
  }

 private:
  struct Holders {
    TxnId exclusive = kInvalidTxn;
    SimTime exclusive_since = 0;
    std::map<TxnId, SimTime> shared;  // txn -> grant observation time
  };

  /// Drops holders whose lease has lapsed (lease-aware mode only).
  void ExpireStale(Holders* holders) {
    if (!now_) return;
    const SimTime t = now_();
    if (holders->exclusive != kInvalidTxn &&
        t - holders->exclusive_since >= lease_) {
      holders->exclusive = kInvalidTxn;
      ++lease_takeovers_;
    }
    for (auto it = holders->shared.begin(); it != holders->shared.end();) {
      if (t - it->second >= lease_) {
        it = holders->shared.erase(it);
        ++lease_takeovers_;
      } else {
        ++it;
      }
    }
  }

  void Violation(const char* kind, LockId lock, TxnId txn, TxnId holder) {
    ++violations_;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s lock=%llu txn=%llu holder=%llu t=%llu", kind,
                  static_cast<unsigned long long>(lock),
                  static_cast<unsigned long long>(txn),
                  static_cast<unsigned long long>(holder),
                  static_cast<unsigned long long>(now_ ? now_() : 0));
    log_.push_back(buf);
  }

  std::map<LockId, Holders> held_;
  /// Admitted, not yet granted exclusives per (lock, class), in order.
  std::map<std::pair<LockId, Priority>, std::deque<TxnId>> x_order_;
  /// Pairs wound-wait revoked whose grant the client may still observe.
  std::set<std::pair<LockId, TxnId>> wounded_;
  std::deque<std::pair<LockId, TxnId>> wounded_fifo_;
  std::uint64_t violations_ = 0;
  std::uint64_t fifo_violations_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t lease_takeovers_ = 0;
  /// Lease-aware mode: unset (no expiry) until SetLease is called.
  SimTime lease_ = 0;
  std::function<SimTime()> now_;
  std::vector<std::string> log_;
};

/// Waits-for graph built from client-side observations: a liveness oracle
/// for the deadlock policies. An acquire opens a wait edge txn -> lock; the
/// acquire callback (grant, abort, timeout) or a Cancel closes it; a grant
/// makes the txn a holder of the lock; a release or wound ends the hold.
/// A deadlock shows up as a cycle txn -> lock -> holder-txn -> lock -> ...
/// that persists: every edge in it stays put. Transient cycles are normal
/// under wound-wait (the wound is in flight), so the check only reports
/// cycles whose *youngest* wait edge is older than a caller-chosen window
/// (comfortably above delivery + policy latency, below the lease).
class WaitsForGraph {
 public:
  void SetClock(std::function<SimTime()> now) { now_ = std::move(now); }

  void OnWaitStart(LockId lock, TxnId txn) {
    waiting_[txn] = Wait{lock, now_ ? now_() : 0};
  }

  void OnWaitEnd(LockId lock, TxnId txn) {
    const auto it = waiting_.find(txn);
    if (it != waiting_.end() && it->second.lock == lock) waiting_.erase(it);
  }

  void OnHoldStart(LockId lock, TxnId txn) { holders_[lock].insert(txn); }

  void OnHoldEnd(LockId lock, TxnId txn) {
    const auto it = holders_.find(lock);
    if (it == holders_.end()) return;
    it->second.erase(txn);
    if (it->second.empty()) holders_.erase(it);
  }

  std::size_t waiting() const { return waiting_.size(); }

  /// Returns a deterministic description of a stuck waits-for cycle —
  /// every wait edge on it at least `min_age` old — or the empty string if
  /// none exists. `now` defaults to the attached clock.
  std::string FindStuckCycle(SimTime min_age, SimTime now = 0) const {
    if (now == 0 && now_) now = now_();
    // DFS over txns; an edge txn -> holder exists when txn waits on a lock
    // the holder currently holds and the wait is old enough.
    std::map<TxnId, int> color;  // 0/absent = white, 1 = on stack, 2 = done.
    for (const auto& [txn, wait] : waiting_) {
      if (color.count(txn) != 0) continue;
      std::vector<TxnId> stack{txn};
      std::vector<TxnId> path;
      while (!stack.empty()) {
        const TxnId t = stack.back();
        if (color[t] == 0) {
          color[t] = 1;
          path.push_back(t);
          const auto wit = waiting_.find(t);
          if (wit != waiting_.end() && now - wit->second.since >= min_age) {
            const auto hit = holders_.find(wit->second.lock);
            if (hit != holders_.end()) {
              for (const TxnId holder : hit->second) {
                if (holder == t) continue;
                if (color[holder] == 1) {
                  return DescribeCycle(path, holder);
                }
                if (color[holder] == 0) stack.push_back(holder);
              }
            }
          }
        } else {
          stack.pop_back();
          if (color[t] == 1) {
            color[t] = 2;
            path.pop_back();
          }
        }
      }
    }
    return {};
  }

 private:
  struct Wait {
    LockId lock = kInvalidLock;
    SimTime since = 0;
  };

  std::string DescribeCycle(const std::vector<TxnId>& path,
                            TxnId back_to) const {
    std::string out = "waits-for cycle:";
    bool in_cycle = false;
    for (const TxnId t : path) {
      if (t == back_to) in_cycle = true;
      if (!in_cycle) continue;
      const auto wit = waiting_.find(t);
      char buf[96];
      std::snprintf(buf, sizeof(buf), " txn=%llu -(lock=%llu)->",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(
                        wit != waiting_.end() ? wit->second.lock
                                              : kInvalidLock));
      out += buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), " txn=%llu",
                  static_cast<unsigned long long>(back_to));
    out += buf;
    return out;
  }

  std::map<TxnId, Wait> waiting_;
  std::map<LockId, std::set<TxnId>> holders_;
  std::function<SimTime()> now_;
};

/// Session decorator feeding the oracle (and, when attached, the
/// waits-for graph).
class OracleSession : public LockSession {
 public:
  OracleSession(std::unique_ptr<LockSession> inner, LockOracle& oracle)
      : inner_(std::move(inner)), oracle_(oracle) {}

  /// Also maintain a waits-for graph from this session's traffic. The
  /// graph must outlive the session.
  void AttachWaitsFor(WaitsForGraph* graph) { waits_ = graph; }

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority,
               AcquireCallback cb) override {
    if (waits_ != nullptr) waits_->OnWaitStart(lock, txn);
    inner_->Acquire(lock, mode, txn, priority,
                    [this, lock, mode, txn, cb = std::move(cb)](
                        AcquireResult result) {
                      if (waits_ != nullptr) waits_->OnWaitEnd(lock, txn);
                      if (result == AcquireResult::kGranted) {
                        oracle_.OnGrant(lock, mode, txn);
                        if (waits_ != nullptr) waits_->OnHoldStart(lock, txn);
                      }
                      cb(result);
                    });
  }

  void Release(LockId lock, LockMode mode, TxnId txn) override {
    // The observer sees every real release, including the ones suppressed
    // from the oracle below — a flight recorder wired here records what the
    // client actually did, which is exactly what an autopsy needs.
    if (release_observer_) release_observer_(lock, mode, txn);
    if (!suppress_release_ || !suppress_release_(lock, txn)) {
      oracle_.OnRelease(lock, mode, txn);
    }
    if (waits_ != nullptr) waits_->OnHoldEnd(lock, txn);
    inner_->Release(lock, mode, txn);
  }

  void Cancel(LockId lock, LockMode mode, TxnId txn) override {
    if (waits_ != nullptr) waits_->OnWaitEnd(lock, txn);
    inner_->Cancel(lock, mode, txn);
  }

  void set_wound_observer(
      std::function<void(LockId, TxnId)> obs) override {
    inner_->set_wound_observer(
        [this, obs = std::move(obs)](LockId lock, TxnId txn) {
          if (waits_ != nullptr) waits_->OnHoldEnd(lock, txn);
          if (obs) obs(lock, txn);
        });
  }

  NodeId node() const override { return inner_->node(); }

  /// Test-only fault injection: when the predicate returns true the oracle
  /// is NOT told about the release (the lock manager still is). The oracle
  /// then believes the txn holds the lock forever, so the next grant is
  /// reported as an overlap — a deliberately seeded "bug" used to prove
  /// the fuzzer catches and shrinks real violations.
  void set_suppress_release(std::function<bool(LockId, TxnId)> pred) {
    suppress_release_ = std::move(pred);
  }

  /// Observes every client release (even oracle-suppressed ones); the
  /// fuzzer wires its flight recorder here.
  void set_release_observer(
      std::function<void(LockId, LockMode, TxnId)> observer) {
    release_observer_ = std::move(observer);
  }

 private:
  std::unique_ptr<LockSession> inner_;
  LockOracle& oracle_;
  WaitsForGraph* waits_ = nullptr;
  std::function<bool(LockId, TxnId)> suppress_release_;
  std::function<void(LockId, LockMode, TxnId)> release_observer_;
};

}  // namespace netlock::testing
