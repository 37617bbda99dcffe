// Traditional centralized server-only lock manager (the "Server-only"
// design point of paper Figure 1, and the "lock server" side of Figure 9).
//
// Clients send lock requests directly to the lock server responsible for
// the lock (hash partitioning); the server CPU both queues and grants, so
// throughput is bounded by cores * per-core rate — the bottleneck NetLock
// exists to remove. Reuses the LockServer substrate in owner-only mode.
//
// The client side is NetLock's own session on its server route: acquires
// go to HomeServer(lock) flagged kFlagServerOwned instead of to a switch.
// Retries, grant dedup and abort handling are shared with the switch
// route. Sessions keep lease = 0 (no client lease discipline).
#pragma once

#include <memory>
#include <vector>

#include "client/client.h"
#include "server/lock_server.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace netlock {

class ServerOnlyManager {
 public:
  ServerOnlyManager(Network& net, LockServerConfig server_config,
                    int num_servers);

  /// Builds a NetLockSession from `config` (tenant, retry settings) on
  /// the server route over this manager's servers.
  std::unique_ptr<LockSession> CreateSession(
      ClientMachine& machine, NetLockSession::Config config = {});

  /// Periodic lease cleanup, as any centralized manager runs.
  void StartLeasePolling(SimTime lease, SimTime interval);

  LockServer& server(int i) { return *servers_[i]; }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  NodeId ServerNodeFor(LockId lock) const {
    return HomeServer(lock, server_nodes_);
  }

  std::uint64_t Grants() const;

 private:
  Network& net_;
  std::vector<std::unique_ptr<LockServer>> servers_;
  std::vector<NodeId> server_nodes_;  ///< The sessions' home-server route.
};

}  // namespace netlock
