#include "harness/testbed.h"

#include "common/check.h"

namespace netlock {

namespace {
/// Per-request NIC service at a client machine (~18 MRPS at 55 ns).
constexpr SimTime kMachineTxService = 55;
/// Spine hop added to every leg that crosses racks.
constexpr SimTime kCrossRackExtraLatency = 2000;
}  // namespace

const char* ToString(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNetLock:
      return "NetLock";
    case SystemKind::kServerOnly:
      return "ServerOnly";
    case SystemKind::kDslr:
      return "DSLR";
    case SystemKind::kDrtm:
      return "DrTM";
    case SystemKind::kNetChain:
      return "NetChain";
  }
  return "?";
}

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)), sim_(config_.context) {
  NETLOCK_CHECK(config_.workload_factory != nullptr);
  NETLOCK_CHECK(config_.client_machines >= 1);
  NETLOCK_CHECK(config_.sessions_per_machine >= 1);
  NETLOCK_CHECK(config_.num_racks >= 1);
  // Only NetLock has a sharded scale-out path; the baselines are
  // single-rack systems.
  NETLOCK_CHECK(config_.num_racks == 1 ||
                config_.system == SystemKind::kNetLock);

  // Default latency covers the client<->server path (through the ToR);
  // client<->switch pairs are set explicitly below.
  const SimTime client_server = kClientSwitchLatency + kSwitchServerLatency;
  net_ = std::make_unique<Network>(sim_, client_server);
  // Fault streams (loss, duplication, reorder, jitter) follow the run seed,
  // so seeded sweeps vary their fault patterns; explicit per-test seeds via
  // SetLossProbability(p, seed) still override.
  net_->SetFaultSeed(config_.seed);

  LockId lock_space = config_.lock_space;
  if (lock_space == 0) {
    lock_space = config_.workload_factory(0)->lock_space();
  }

  // --- System under test ---
  std::vector<NodeId> infra_switch_nodes;  // Nodes at switch distance.
  std::vector<NodeId> infra_server_nodes;  // Nodes at server distance.
  switch (config_.system) {
    case SystemKind::kNetLock: {
      NetLockOptions options;
      options.switch_config = config_.switch_config;
      options.server_config = config_.server_config;
      options.num_servers = config_.lock_servers;
      options.control_config.lease = config_.lease;
      options.control_config.lease_poll_interval =
          config_.lease_poll_interval;
      options.client_retry_timeout = config_.client_retry_timeout;
      options.client_max_retries = config_.client_max_retries;
      ShardedNetLockOptions sharded_options;
      sharded_options.rack = options;
      sharded_options.num_racks = config_.num_racks;
      sharded_ = std::make_unique<ShardedNetLock>(*net_, sharded_options);
      if (config_.controller) {
        controller_ = std::make_unique<SelfDrivingController>(
            sim_, *sharded_, config_.controller_config);
      }
      for (int r = 0; r < sharded_->num_racks(); ++r) {
        NetLockManager& rack = sharded_->rack(r);
        infra_switch_nodes.push_back(rack.lock_switch().node());
        for (int i = 0; i < rack.num_servers(); ++i) {
          infra_server_nodes.push_back(rack.server(i).node());
        }
      }
      break;
    }
    case SystemKind::kServerOnly: {
      server_only_ = std::make_unique<ServerOnlyManager>(
          *net_, config_.server_config, config_.lock_servers);
      server_only_->StartLeasePolling(config_.lease,
                                      config_.lease_poll_interval);
      for (int i = 0; i < server_only_->num_servers(); ++i) {
        infra_server_nodes.push_back(server_only_->server(i).node());
      }
      break;
    }
    case SystemKind::kDslr:
      dslr_ = std::make_unique<DslrManager>(*net_, config_.lock_servers,
                                            lock_space);
      for (int i = 0; i < dslr_->num_servers(); ++i) {
        infra_server_nodes.push_back(dslr_->nic(i).node());
      }
      break;
    case SystemKind::kDrtm:
      drtm_ = std::make_unique<DrtmManager>(*net_, config_.lock_servers,
                                            lock_space);
      for (int i = 0; i < drtm_->num_servers(); ++i) {
        infra_server_nodes.push_back(drtm_->nic(i).node());
      }
      break;
    case SystemKind::kNetChain:
      netchain_ = std::make_unique<NetChainSwitch>(*net_);
      infra_switch_nodes.push_back(netchain_->node());
      break;
  }

  // --- Clients ---
  const int total_engines =
      config_.client_machines * config_.sessions_per_machine;
  for (int m = 0; m < config_.client_machines; ++m) {
    machines_.push_back(
        std::make_unique<ClientMachine>(*net_, kMachineTxService));
  }
  for (int i = 0; i < total_engines; ++i) {
    ClientMachine& machine = *machines_[i % config_.client_machines];
    const TenantId tenant = config_.tenant_of ? config_.tenant_of(i) : 0;
    std::unique_ptr<LockSession> session;
    switch (config_.system) {
      case SystemKind::kNetLock:
        session = sharded_->CreateSession(machine, tenant);
        break;
      case SystemKind::kServerOnly: {
        NetLockSession::Config session_config;
        session_config.tenant = tenant;
        session_config.retry_timeout = config_.client_retry_timeout;
        session_config.max_retries = config_.client_max_retries;
        session = server_only_->CreateSession(machine, session_config);
        break;
      }
      case SystemKind::kDslr:
        session = dslr_->CreateSession(machine);
        break;
      case SystemKind::kDrtm:
        session = drtm_->CreateSession(machine);
        break;
      case SystemKind::kNetChain:
        session = std::make_unique<NetChainSession>(
            machine, *netchain_, config_.seed * 7919 + i);
        break;
    }
    if (config_.system == SystemKind::kNetLock &&
        sharded_->num_racks() > 1) {
      // Multi-rack: one inner session per rack, each with its own node.
      // The machine's home rack (round-robin by machine) is one ToR leg
      // away; every other rack costs an extra spine hop each way.
      auto* sharded_session = static_cast<ShardedSession*>(session.get());
      const int home = (i % config_.client_machines) % sharded_->num_racks();
      for (int r = 0; r < sharded_->num_racks(); ++r) {
        const SimTime extra = (r == home) ? 0 : kCrossRackExtraLatency;
        NetLockManager& rack = sharded_->rack(r);
        const NodeId leaf = sharded_session->rack_session(r).node();
        net_->SetLatency(leaf, rack.lock_switch().node(),
                         kClientSwitchLatency + extra);
        for (int s = 0; s < rack.num_servers(); ++s) {
          net_->SetLatency(leaf, rack.server(s).node(),
                           client_server + extra);
        }
      }
    } else {
      // Session nodes sit one client leg from switches.
      for (const NodeId sw : infra_switch_nodes) {
        net_->SetLatency(session->node(), sw, kClientSwitchLatency);
      }
    }
    if (config_.session_wrapper) {
      session = config_.session_wrapper(std::move(session));
    }
    TxnEngineConfig txn_config = config_.txn_config;
    if (config_.priority_of) txn_config.priority = config_.priority_of(i);
    engines_.push_back(std::make_unique<TxnEngine>(
        sim_, *session, config_.workload_factory(i),
        static_cast<std::uint32_t>(i + 1),
        config_.seed * 1000003ull + i, txn_config));
    sessions_.push_back(std::move(session));
  }
  if (config_.system == SystemKind::kNetLock && sharded_->num_racks() > 1) {
    // Each switch pairs with its own rack's servers over the ToR fabric;
    // switch <-> switch (re-home tombstone forwarding) crosses the spine.
    for (int r = 0; r < sharded_->num_racks(); ++r) {
      NetLockManager& rack = sharded_->rack(r);
      for (int s = 0; s < rack.num_servers(); ++s) {
        net_->SetLatency(rack.lock_switch().node(), rack.server(s).node(),
                         kSwitchServerLatency);
      }
      for (int q = r + 1; q < sharded_->num_racks(); ++q) {
        net_->SetLatency(rack.lock_switch().node(),
                         sharded_->rack(q).lock_switch().node(),
                         kCrossRackExtraLatency);
      }
    }
  } else {
    // Switch <-> server legs.
    for (const NodeId sw : infra_switch_nodes) {
      for (const NodeId srv : infra_server_nodes) {
        net_->SetLatency(sw, srv, kSwitchServerLatency);
      }
    }
  }
}

Testbed::~Testbed() = default;

NetLockManager& Testbed::netlock() {
  NETLOCK_CHECK(sharded_ != nullptr);
  return sharded_->rack(0);
}
ShardedNetLock& Testbed::sharded() {
  NETLOCK_CHECK(sharded_ != nullptr);
  return *sharded_;
}
SelfDrivingController& Testbed::controller() {
  NETLOCK_CHECK(controller_ != nullptr);
  return *controller_;
}
ServerOnlyManager& Testbed::server_only() {
  NETLOCK_CHECK(server_only_ != nullptr);
  return *server_only_;
}
DslrManager& Testbed::dslr() {
  NETLOCK_CHECK(dslr_ != nullptr);
  return *dslr_;
}
DrtmManager& Testbed::drtm() {
  NETLOCK_CHECK(drtm_ != nullptr);
  return *drtm_;
}
NetChainSwitch& Testbed::netchain() {
  NETLOCK_CHECK(netchain_ != nullptr);
  return *netchain_;
}

void Testbed::StartEngines() {
  for (auto& engine : engines_) {
    if (engine->idle()) engine->Restart();
  }
}

void Testbed::StopEngines(SimTime max_wait) {
  for (auto& engine : engines_) engine->Stop();
  const SimTime deadline = sim_.now() + max_wait;
  while (sim_.now() < deadline) {
    bool all_idle = true;
    for (auto& engine : engines_) {
      if (!engine->idle()) {
        all_idle = false;
        break;
      }
    }
    if (all_idle) return;
    sim_.RunUntil(sim_.now() + kMillisecond);
  }
  for (auto& engine : engines_) {
    NETLOCK_CHECK(engine->idle());  // Drain failed: a request is stuck.
  }
}

void Testbed::SetRecording(bool on) {
  for (auto& engine : engines_) engine->SetRecording(on);
  if (on) {
    switch_grants_at_record_ = GrantsServedBySwitch();
    server_grants_at_record_ = GrantsServedByServers();
  }
}

std::uint64_t Testbed::GrantsServedBySwitch() const {
  switch (config_.system) {
    case SystemKind::kNetLock:
      return sharded_->SwitchGrants();
    case SystemKind::kNetChain:
      return netchain_->stats().grants;
    default:
      return 0;
  }
}

std::uint64_t Testbed::GrantsServedByServers() const {
  switch (config_.system) {
    case SystemKind::kNetLock:
      return sharded_->ServerGrants();
    case SystemKind::kServerOnly:
      return server_only_->Grants();
    default:
      return 0;  // Decentralized systems grant client-side.
  }
}

RunMetrics Testbed::Run(SimTime warmup, SimTime measure) {
  StartEngines();
  sim_.RunUntil(sim_.now() + warmup);
  SetRecording(true);
  sim_.RunUntil(sim_.now() + measure);
  SetRecording(false);
  return Collect(measure);
}

RunMetrics Testbed::Collect(SimTime duration) const {
  RunMetrics total;
  total.duration = duration;
  for (const auto& engine : engines_) {
    const RunMetrics& m = engine->metrics();
    total.lock_grants += m.lock_grants;
    total.lock_requests += m.lock_requests;
    total.retries += m.retries;
    total.txn_commits += m.txn_commits;
    total.lock_latency.Merge(m.lock_latency);
    total.txn_latency.Merge(m.txn_latency);
  }
  total.switch_grants = GrantsServedBySwitch() - switch_grants_at_record_;
  total.server_grants = GrantsServedByServers() - server_grants_at_record_;
  return total;
}

std::vector<LockDemand> Testbed::ProfileDemands(SimTime profile_duration) {
  NETLOCK_CHECK(sharded_ != nullptr);
  for (int r = 0; r < sharded_->num_racks(); ++r) {
    sharded_->rack(r).control_plane().StartLeasePolling();
    // Reset the demand window before profiling.
    (void)sharded_->rack(r).control_plane().HarvestDemands();
  }
  StartEngines();
  sim_.RunUntil(sim_.now() + profile_duration);
  StopEngines();
  // Each lock's demand is observed only by its directory rack, so the
  // per-rack harvests are disjoint; concatenate in rack order for
  // determinism.
  std::vector<LockDemand> demands;
  for (int r = 0; r < sharded_->num_racks(); ++r) {
    std::vector<LockDemand> rack_demands =
        sharded_->rack(r).control_plane().HarvestDemands();
    demands.insert(demands.end(), rack_demands.begin(), rack_demands.end());
  }
  return demands;
}

}  // namespace netlock
