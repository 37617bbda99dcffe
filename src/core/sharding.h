// Multi-rack scale-out: shard the lock space across NetLock racks.
//
// The paper sizes NetLock per rack (Sections 4.3, 6): one ToR switch plus a
// handful of lock servers serve that rack's database nodes. Scaling past a
// single rack follows the NetChain (NSDI'18) recipe for in-switch state —
// partition the key space across switches with consistent, client-side
// routing:
//
//   * LockDirectory maps LockId -> rack by hash, with an exact-match
//     override table so individual hot locks can be re-homed onto an
//     underloaded rack without moving their whole hash range.
//   * ShardedNetLock owns N NetLockManager racks over one simulated
//     network and creates sessions that route each acquire to its lock's
//     rack. Releases follow the rack that granted (recorded per
//     (lock, txn) at acquire time), so a re-home never strands a release
//     on the wrong switch.
//   * RehomeLock migrates one lock between racks with the same
//     pause -> drain -> move discipline the control plane uses inside a
//     rack (ControlPlane::MoveLockToServer / MoveLockToSwitch): stage it
//     suspended through the target rack's control plane, flip the
//     directory (new requests queue at the target but are not granted),
//     drain the source, tombstone-route strays from the source to the
//     target, then activate (under the target switch's restart grace).
//     Mutual exclusion holds throughout: at most one rack grants the lock
//     at any time. While a re-home is in flight, and after it for the
//     source, neither rack's own migrations touch the lock.
//
// Per-rack observability: with more than one rack, each rack's
// switch/server instruments resolve under a "rackN." metrics prefix and its
// trace spans carry pid = N + 1, so the existing dashboards split by rack.
// A single rack keeps the unprefixed names.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/client.h"
#include "core/netlock.h"

namespace netlock {

/// Client-side map LockId -> rack: hash partitioning plus an exact-match
/// override table for re-homed locks. Pure and deterministic; every client
/// and the control planes share one instance per topology.
class LockDirectory {
 public:
  explicit LockDirectory(int num_racks);

  int num_racks() const { return num_racks_; }

  /// Rack responsible for `lock`: the override if one is set, else the
  /// hash partition.
  int RackFor(LockId lock) const {
    const auto it = overrides_.find(lock);
    if (it != overrides_.end()) return it->second;
    return HashRack(lock, num_racks_);
  }

  /// Exact-match override: `lock` now lives on `rack`.
  void SetOverride(LockId lock, int rack);
  void ClearOverride(LockId lock);
  bool HasOverride(LockId lock) const {
    return overrides_.find(lock) != overrides_.end();
  }
  std::size_t num_overrides() const { return overrides_.size(); }

  /// The hash partition (ignoring overrides). Deterministic across
  /// processes and runs.
  static int HashRack(LockId lock, int num_racks);

 private:
  int num_racks_;
  std::unordered_map<LockId, int> overrides_;
};

struct ShardedNetLockOptions {
  /// Per-rack configuration (every rack is built identically).
  NetLockOptions rack;
  int num_racks = 1;
};

/// A client session over a sharded topology: one inner per-rack session,
/// acquire routed by the directory at call time, release and cancel routed
/// to the rack the acquire went to. Wounds from any rack reach the one
/// observer.
class ShardedSession : public LockSession {
 public:
  ShardedSession(const LockDirectory& directory,
                 std::vector<std::unique_ptr<LockSession>> rack_sessions);

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority,
               AcquireCallback cb) override;
  void Release(LockId lock, LockMode mode, TxnId txn) override;
  void Cancel(LockId lock, LockMode mode, TxnId txn) override;
  void set_wound_observer(
      std::function<void(LockId, TxnId)> obs) override;
  NodeId node() const override { return rack_sessions_[0]->node(); }

  /// The per-rack inner session (for harness wiring: each has its own
  /// network node that needs a latency to its rack's switch).
  LockSession& rack_session(int rack) { return *rack_sessions_[rack]; }
  int num_racks() const { return static_cast<int>(rack_sessions_.size()); }

 private:
  struct RouteKey {
    LockId lock;
    TxnId txn;
    bool operator==(const RouteKey&) const = default;
  };
  struct RouteKeyHash {
    std::size_t operator()(const RouteKey& key) const {
      std::uint64_t h = key.txn * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<std::uint64_t>(key.lock) + 0x165667b19e3779f9ull) +
           (h << 6) + (h >> 2);
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
  };

  /// Rack the acquire of (lock, txn) went to, dropping the route: the
  /// caller sends the pair's last message (release or cancel).
  int TakeRoute(LockId lock, TxnId txn);

  const LockDirectory& directory_;
  std::vector<std::unique_ptr<LockSession>> rack_sessions_;
  /// (lock, txn) -> rack that serviced the acquire. An entry lives from
  /// Acquire until Release, Cancel, a wound, or a failed acquire's
  /// callback, so a directory flip mid-transaction cannot misroute the
  /// release.
  std::unordered_map<RouteKey, int, RouteKeyHash> acquire_rack_;
  std::function<void(LockId, TxnId)> wound_observer_;
};

/// N NetLock racks behind one lock-space directory.
class ShardedNetLock {
 public:
  ShardedNetLock(Network& net,
                 ShardedNetLockOptions options = ShardedNetLockOptions{});

  int num_racks() const { return static_cast<int>(racks_.size()); }
  NetLockManager& rack(int r) { return *racks_[r]; }
  LockDirectory& directory() { return directory_; }
  const LockDirectory& directory() const { return directory_; }

  /// Splits a global allocation by directory and installs each rack's
  /// share (starts lease polling everywhere).
  void InstallAllocation(const Allocation& allocation);

  /// Splits `demands` by directory and runs the knapsack per rack against
  /// that rack's switch queue capacity.
  void InstallKnapsack(const std::vector<LockDemand>& demands);

  /// Creates a session. Single-rack topologies return the plain
  /// NetLockSession (zero routing overhead and full API compatibility);
  /// multi-rack topologies return a ShardedSession.
  std::unique_ptr<LockSession> CreateSession(ClientMachine& machine,
                                             TenantId tenant = 0);

  /// Re-homes one lock onto `to_rack` using the pause -> drain -> move
  /// protocol described in the header comment. `done` fires when the lock
  /// is live on the target rack. A no-op (done fires immediately, returns
  /// false) when the lock already lives there, a re-home for it is already
  /// in flight, or its rack is moving it between switch and server — the
  /// false return lets the self-driving controller charge its migration
  /// budget only for moves that actually launch.
  bool RehomeLock(LockId lock, int to_rack,
                  std::function<void()> done = nullptr);

  bool RehomeInFlight(LockId lock) const {
    return rehoming_.find(lock) != rehoming_.end();
  }
  std::size_t rehomes_in_flight() const { return rehoming_.size(); }
  std::uint64_t rehomes_completed() const { return rehomes_completed_; }

  // --- Aggregate and per-rack grant accounting (scale-out benches) ---
  std::uint64_t SwitchGrants() const;
  std::uint64_t ServerGrants() const;
  std::uint64_t SwitchGrants(int rack) const {
    return racks_[rack]->SwitchGrants();
  }
  std::uint64_t ServerGrants(int rack) const {
    return racks_[rack]->ServerGrants();
  }

 private:
  Network& net_;
  ShardedNetLockOptions options_;
  LockDirectory directory_;
  std::vector<std::unique_ptr<NetLockManager>> racks_;
  std::unordered_set<LockId> rehoming_;
  std::uint64_t rehomes_completed_ = 0;
};

}  // namespace netlock
