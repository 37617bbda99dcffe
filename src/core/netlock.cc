#include "core/netlock.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

NetLockManager::NetLockManager(Network& net, NetLockOptions options)
    : net_(net), options_(options) {
  NETLOCK_CHECK(options_.num_servers >= 1);
  switch_ = std::make_unique<LockSwitch>(net_, options_.switch_config);
  std::vector<LockServer*> server_ptrs;
  for (int i = 0; i < options_.num_servers; ++i) {
    servers_.push_back(
        std::make_unique<LockServer>(net_, options_.server_config));
    server_ptrs.push_back(servers_.back().get());
  }
  control_ = std::make_unique<ControlPlane>(net_.sim(), *switch_,
                                            std::move(server_ptrs),
                                            options_.control_config);
}

void NetLockManager::InstallAllocation(const Allocation& allocation) {
  control_->InstallAllocation(allocation);
  control_->StartLeasePolling();
}

void NetLockManager::InstallKnapsack(const std::vector<LockDemand>& demands) {
  InstallAllocation(
      KnapsackAllocate(demands, options_.switch_config.queue_capacity));
}

std::unique_ptr<LockSession> NetLockManager::CreateSession(
    ClientMachine& machine, TenantId tenant) {
  NetLockSession::Config config;
  config.switch_node = switch_->node();
  config.tenant = tenant;
  config.retry_timeout = options_.client_retry_timeout;
  config.max_retries = options_.client_max_retries;
  // The release margin covers the release's flight plus the grant's (one
  // client<->switch leg each, with slack for jitter and NIC queueing) yet
  // stays well under the lease, so normal releases are never suppressed.
  config.lease = options_.control_config.lease;
  config.lease_release_margin =
      std::min<SimTime>(config.lease / 4, 100 * kMicrosecond);
  return std::make_unique<NetLockSession>(machine, config);
}

std::uint64_t NetLockManager::ServerGrants() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) total += server->stats().grants;
  return total;
}

}  // namespace netlock
