// DrTM-style baseline (Wei et al., SOSP 2015): RDMA CAS locks with blind
// fail-and-retry, the paper's second decentralized comparison point.
//
// Each lock is a 64-bit word at the lock server's NIC:
//
//     word = [ exclusive owner (63:32) | shared count (31:0) ]
//
// Exclusive acquire: CAS(0 -> owner<<32); any reader or writer makes the
// CAS fail and the client retries blind after an exponential backoff —
// exactly the behaviour that collapses under contention in Figures 10-11.
// Shared acquire: FAA(+1) on the reader count; if the returned word shows a
// writer, roll back with FAA(-1) and retry. Releases use FAA so concurrent
// reader arithmetic is never lost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "client/client.h"
#include "common/random.h"
#include "rdma/rdma.h"
#include "sim/network.h"

namespace netlock {

class DrtmManager {
 public:
  DrtmManager(Network& net, int num_servers, LockId lock_space);

  std::unique_ptr<LockSession> CreateSession(ClientMachine& machine);

  NodeId NicNodeFor(LockId lock) const;
  std::uint32_t AddrFor(LockId lock) const;

  RdmaNic& nic(int i) { return *nics_[i]; }
  int num_servers() const { return static_cast<int>(nics_.size()); }

  std::uint64_t total_retries() const { return total_retries_; }

 private:
  friend class DrtmSession;

  Network& net_;
  std::vector<std::unique_ptr<RdmaNic>> nics_;
  std::uint64_t total_retries_ = 0;
  std::uint32_t next_owner_id_ = 1;
};

class DrtmSession : public LockSession {
 public:
  DrtmSession(ClientMachine& machine, DrtmManager& manager,
              std::uint32_t owner_id);

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority,
               AcquireCallback cb) override;
  void Release(LockId lock, LockMode mode, TxnId txn) override;
  NodeId node() const override { return endpoint_.node(); }

 private:
  void TryExclusive(LockId lock, std::uint32_t attempt, AcquireCallback cb);
  void TryShared(LockId lock, std::uint32_t attempt, AcquireCallback cb);
  SimTime Backoff(std::uint32_t attempt);

  ClientMachine& machine_;
  DrtmManager& manager_;
  RdmaEndpoint endpoint_;
  std::uint32_t owner_id_;
  Rng rng_;
};

}  // namespace netlock
