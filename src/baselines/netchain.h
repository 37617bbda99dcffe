// NetChain-style baseline (Jin et al., NSDI 2018): locks as entries in an
// in-switch key-value store.
//
// NetChain is "not a fully functional lock manager" (paper Section 6.1): it
// supports only exclusive locks (shared requests are degraded to exclusive)
// and resolves contention by client-side retry instead of queuing. Each
// lock maps to one register cell holding the owner transaction id (0 =
// free); an acquire is a write-if-empty, a release is a guarded delete, and
// a busy reply sends the client into blind retry with backoff.
//
// Because NetChain stores whole items (not queue slots), it must fit every
// lock in switch memory; the paper "adapts the lock granularity based on
// the switch memory size and the number of locks", which we reproduce by
// hashing lock ids onto the available cells — coarser granularity means
// false conflicts, exactly the cost the paper describes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "client/client.h"
#include "common/random.h"
#include "sim/network.h"
#include "switchsim/pipeline.h"

namespace netlock {

struct NetChainConfig {
  /// Register cells available for locks (each holds one owner id).
  std::uint32_t num_cells = 100'000;
  int num_stages = 12;
};

/// The in-switch KV lock service.
class NetChainSwitch {
 public:
  NetChainSwitch(Network& net, NetChainConfig config = NetChainConfig{});

  NodeId node() const { return node_; }

  /// Coarse-granularity mapping of a lock id onto a cell.
  std::uint32_t CellFor(LockId lock) const;

  struct Stats {
    std::uint64_t grants = 0;
    std::uint64_t busy_replies = 0;
    std::uint64_t releases = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void OnPacket(const Packet& pkt);

  Network& net_;
  NetChainConfig config_;
  NodeId node_;
  Pipeline pipeline_;
  std::unique_ptr<RegisterArray<std::uint64_t>> cells_;
  Stats stats_;
};

class NetChainSession : public LockSession {
 public:
  NetChainSession(ClientMachine& machine, NetChainSwitch& kv,
                  std::uint64_t seed);

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority,
               AcquireCallback cb) override;
  void Release(LockId lock, LockMode mode, TxnId txn) override;
  NodeId node() const override { return node_; }

  /// Locks conflict at cell granularity (coarsened locking): expose it so
  /// transactions order/deduplicate by cell.
  LockId ConflictUnit(LockId lock) const override {
    return kv_.CellFor(lock);
  }

  std::uint64_t retries() const { return retries_; }

 private:
  struct Pending {
    std::uint32_t attempts = 0;
    AcquireCallback cb;
  };

  void OnPacket(const Packet& pkt);
  void SendAcquire(LockId lock, TxnId txn);
  SimTime Backoff(std::uint32_t attempt);

  ClientMachine& machine_;
  NetChainSwitch& kv_;
  NodeId node_;
  Rng rng_;
  std::map<std::pair<LockId, TxnId>, Pending> pending_;
  std::uint64_t retries_ = 0;
};

}  // namespace netlock
