// DSLR baseline (Yoon, Chowdhury, Mozafari — SIGMOD 2018): decentralized
// lock management with RDMA, the paper's primary comparison point.
//
// DSLR adapts Lamport's bakery algorithm to a single 64-bit lock word per
// lock, updated with one-sided RDMA fetch-and-add so the lock server's CPU
// is never involved:
//
//   word = [ max_x (63:48) | max_s (47:32) | now_x (31:16) | now_s (15:0) ]
//
// Acquire: FAA on the max field of your mode takes a bakery ticket and the
// returned snapshot tells you whether you already hold the lock (exclusive:
// now_x == your max_x and now_s == your max_s; shared: now_x == your
// max_x). Otherwise you poll with RDMA READs, waiting proportionally to
// your queue distance. Release: FAA on the now field of your mode. This
// gives FCFS and starvation freedom — but every wait costs extra round
// trips and every op costs a NIC atomic, which is what NetLock beats.
//
// The 16-bit tickets wrap: when a FAA returns max >= kResetThreshold the
// ticket is abandoned; the client that drew exactly the threshold becomes
// the reset leader, waits for every earlier ticket to be served, and CASes
// the word back to zero (DSLR Section 4.4's counter-reset protocol).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "client/client.h"
#include "rdma/rdma.h"
#include "sim/network.h"

namespace netlock {

struct DslrConfig {
  /// Ticket value at which the reset protocol engages.
  std::uint16_t reset_threshold = 0xFF00;
  /// Base interval between polling READs.
  SimTime base_poll = 2 * kMicrosecond;
  /// Expected per-holder service time used to scale the poll interval by
  /// queue distance (DSLR's proportional waiting).
  SimTime per_hold_estimate = 8 * kMicrosecond;
  /// Backoff while waiting out a counter reset.
  SimTime reset_backoff = 20 * kMicrosecond;
};

class DslrManager {
 public:
  /// One RDMA NIC per lock server; lock l lives on server l % n at word
  /// l / n.
  DslrManager(Network& net, int num_servers, LockId lock_space,
              DslrConfig config = DslrConfig{});

  std::unique_ptr<LockSession> CreateSession(ClientMachine& machine);

  RdmaNic& nic(int i) { return *nics_[i]; }
  int num_servers() const { return static_cast<int>(nics_.size()); }
  const DslrConfig& config() const { return config_; }

  NodeId NicNodeFor(LockId lock) const;
  std::uint32_t AddrFor(LockId lock) const;

  /// Aggregate client-side retries/polls across sessions (for reporting).
  std::uint64_t total_polls() const { return total_polls_; }
  std::uint64_t total_resets() const { return total_resets_; }

 private:
  friend class DslrSession;

  Network& net_;
  DslrConfig config_;
  std::vector<std::unique_ptr<RdmaNic>> nics_;
  std::uint64_t total_polls_ = 0;
  std::uint64_t total_resets_ = 0;
};

class DslrSession : public LockSession {
 public:
  DslrSession(ClientMachine& machine, DslrManager& manager);

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority,
               AcquireCallback cb) override;
  void Release(LockId lock, LockMode mode, TxnId txn) override;
  NodeId node() const override { return endpoint_.node(); }

 private:
  struct Wait {
    LockId lock;
    LockMode mode;
    std::uint16_t my_x = 0;  ///< max_x snapshot (our ticket for X).
    std::uint16_t my_s = 0;  ///< max_s snapshot.
    std::uint32_t polls = 0;
    bool detached = false;   ///< Caller gave up; consume-and-release.
    AcquireCallback cb;
  };

  void StartAcquire(LockId lock, LockMode mode, AcquireCallback cb);
  void OnTicket(std::shared_ptr<Wait> wait, std::uint64_t old_word);
  void Poll(std::shared_ptr<Wait> wait);
  void WaitForReset(std::shared_ptr<Wait> wait);
  void RunResetLeader(LockId lock, std::uint16_t threshold);

  ClientMachine& machine_;
  DslrManager& manager_;
  RdmaEndpoint endpoint_;
};

// Field helpers (exposed for tests).
constexpr std::uint64_t DslrPack(std::uint16_t max_x, std::uint16_t max_s,
                                 std::uint16_t now_x, std::uint16_t now_s) {
  return (static_cast<std::uint64_t>(max_x) << 48) |
         (static_cast<std::uint64_t>(max_s) << 32) |
         (static_cast<std::uint64_t>(now_x) << 16) | now_s;
}
constexpr std::uint16_t DslrMaxX(std::uint64_t w) {
  return static_cast<std::uint16_t>(w >> 48);
}
constexpr std::uint16_t DslrMaxS(std::uint64_t w) {
  return static_cast<std::uint16_t>(w >> 32);
}
constexpr std::uint16_t DslrNowX(std::uint64_t w) {
  return static_cast<std::uint16_t>(w >> 16);
}
constexpr std::uint16_t DslrNowS(std::uint64_t w) {
  return static_cast<std::uint16_t>(w);
}

}  // namespace netlock
