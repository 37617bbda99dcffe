#include "baselines/server_only.h"

#include "common/check.h"

namespace netlock {

ServerOnlyManager::ServerOnlyManager(Network& net,
                                     LockServerConfig server_config,
                                     int num_servers)
    : net_(net) {
  NETLOCK_CHECK(num_servers >= 1);
  for (int i = 0; i < num_servers; ++i) {
    servers_.push_back(std::make_unique<LockServer>(net_, server_config));
    server_nodes_.push_back(servers_.back()->node());
  }
}

std::unique_ptr<LockSession> ServerOnlyManager::CreateSession(
    ClientMachine& machine, NetLockSession::Config config) {
  config.home_servers = server_nodes_;
  return std::make_unique<NetLockSession>(machine, std::move(config));
}

void ServerOnlyManager::StartLeasePolling(SimTime lease, SimTime interval) {
  net_.sim().Schedule(interval, [this, lease, interval]() {
    for (auto& server : servers_) server->ClearExpired(lease);
    StartLeasePolling(lease, interval);
  });
}

std::uint64_t ServerOnlyManager::Grants() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) total += server->stats().grants;
  return total;
}

}  // namespace netlock
