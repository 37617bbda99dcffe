// NetLockManager: the public facade tying together one lock switch, a set
// of lock servers, and the control plane — one NetLock instance for one
// database rack (paper Figure 2).
//
// Typical use (see examples/quickstart.cc):
//
//   Simulator sim;
//   Network net(sim, /*latency=*/1100);
//   NetLockManager manager(net, NetLockOptions{});
//   manager.InstallAllocation(KnapsackAllocate(demands, slots));
//   ClientMachine machine(net);
//   auto session = manager.CreateSession(machine, /*tenant=*/0);
//   session->Acquire(lock, LockMode::kExclusive, txn, 0, on_granted);
#pragma once

#include <memory>
#include <vector>

#include "client/client.h"
#include "core/control_plane.h"
#include "core/memory_alloc.h"
#include "dataplane/switch_dataplane.h"
#include "server/lock_server.h"
#include "sim/network.h"

namespace netlock {

struct NetLockOptions {
  LockSwitchConfig switch_config;
  LockServerConfig server_config;
  int num_servers = 2;
  ControlPlaneConfig control_config;
  /// Client session defaults (switch_node is filled in by CreateSession;
  /// the lease comes from control_config).
  SimTime client_retry_timeout = 5 * kMillisecond;
  int client_max_retries = 16;
};

class NetLockManager {
 public:
  NetLockManager(Network& net, NetLockOptions options = NetLockOptions{});

  /// Installs a memory allocation and starts lease polling.
  void InstallAllocation(const Allocation& allocation);

  /// Convenience: compute Algorithm 3's allocation over `demands` for the
  /// configured switch queue capacity and install it.
  void InstallKnapsack(const std::vector<LockDemand>& demands);

  /// Creates a client session bound to `machine`. One lease governs the
  /// switch and its clients (§4.5): the session holds its grants to
  /// control_config.lease, so it never sends a release that could race
  /// the lease sweep's forced release of the same entry.
  std::unique_ptr<LockSession> CreateSession(ClientMachine& machine,
                                             TenantId tenant = 0);

  LockSwitch& lock_switch() { return *switch_; }
  ControlPlane& control_plane() { return *control_; }
  const NetLockOptions& options() const { return options_; }
  LockServer& server(int i) { return *servers_[i]; }
  int num_servers() const { return static_cast<int>(servers_.size()); }

  /// Grants served by the switch data plane vs by lock servers — the split
  /// Figure 13(a) plots.
  std::uint64_t SwitchGrants() const { return switch_->stats().grants; }
  std::uint64_t ServerGrants() const;

 private:
  Network& net_;
  NetLockOptions options_;
  std::unique_ptr<LockSwitch> switch_;
  std::vector<std::unique_ptr<LockServer>> servers_;
  std::unique_ptr<ControlPlane> control_;
};

}  // namespace netlock
