// Experiment testbed: wires a complete rack — client machines with
// transaction engines, the lock-manager system under test, and the network
// topology — mirroring the paper's setups (e.g., "ten machines as clients
// and two machines as lock servers").
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "baselines/drtm.h"
#include "core/controller.h"
#include "baselines/dslr.h"
#include "baselines/netchain.h"
#include "baselines/server_only.h"
#include "client/client.h"
#include "client/txn.h"
#include "common/stats.h"
#include "core/netlock.h"
#include "core/sharding.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace netlock {

enum class SystemKind {
  kNetLock = 0,
  kServerOnly = 1,
  kDslr = 2,
  kDrtm = 3,
  kNetChain = 4,
};

const char* ToString(SystemKind kind);

/// One-way link latencies. Client legs include client software + NIC
/// overhead (the paper attributes most of its 8 us median to those), so a
/// switch-served grant takes ~2 * kClientSwitchLatency and a server-served
/// grant a full extra switch<->server round trip.
inline constexpr SimTime kClientSwitchLatency = 2500;
inline constexpr SimTime kSwitchServerLatency = 1500;

struct TestbedConfig {
  SystemKind system = SystemKind::kNetLock;

  /// Telemetry context for this testbed's simulation. nullptr = a private
  /// context the simulator owns. Benches pass their report's context;
  /// sweep tasks pass the one ParallelSweep hands them.
  SimContext* context = nullptr;

  // Topology (paper Section 6.1 defaults: 12-server testbed).
  int client_machines = 10;
  int sessions_per_machine = 8;
  int lock_servers = 2;

  /// NetLock-only scale-out: shard the lock space across this many racks
  /// (each with its own switch, `lock_servers` servers, and control
  /// plane) behind a client-side LockDirectory. Client machines are
  /// assigned to racks round-robin; requests to a remote rack pay an extra
  /// spine hop on top of the ToR leg.
  int num_racks = 1;

  LockSwitchConfig switch_config;
  LockServerConfig server_config;
  TxnEngineConfig txn_config;

  SimTime lease = 50 * kMillisecond;
  SimTime lease_poll_interval = 10 * kMillisecond;
  SimTime client_retry_timeout = 5 * kMillisecond;
  int client_max_retries = 16;

  std::uint64_t seed = 42;

  /// NetLock-only: stand up a SelfDrivingController over the topology
  /// (continuous demand-tracking reallocation). It is constructed with the
  /// testbed but not started — call controller().Start() once an initial
  /// allocation is installed (benches honor `--controller=on|off` here).
  bool controller = false;
  ControllerConfig controller_config;

  /// Required: builds the workload for engine `i` (0-based global index).
  std::function<std::unique_ptr<WorkloadGenerator>(int)> workload_factory;
  /// Optional per-engine tenant / priority (default 0).
  std::function<TenantId(int)> tenant_of;
  std::function<Priority(int)> priority_of;
  /// Lock-id space; 0 = derive from workload_factory(0).
  LockId lock_space = 0;
  /// Optional decorator applied to every session (test oracles, tracing).
  std::function<std::unique_ptr<LockSession>(std::unique_ptr<LockSession>)>
      session_wrapper;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Simulator& sim() { return sim_; }
  Network& net() { return *net_; }
  const TestbedConfig& config() const { return config_; }

  /// NetLock-only. netlock() is rack 0 (the only rack when num_racks==1,
  /// preserving the single-rack API); sharded() exposes the full scale-out
  /// topology — directory, per-rack managers, RehomeLock.
  NetLockManager& netlock();
  ShardedNetLock& sharded();
  /// NetLock-only; requires config.controller = true.
  SelfDrivingController& controller();
  bool has_controller() const { return controller_ != nullptr; }
  ServerOnlyManager& server_only();
  DslrManager& dslr();
  DrtmManager& drtm();
  NetChainSwitch& netchain();

  int num_engines() const { return static_cast<int>(engines_.size()); }
  TxnEngine& engine(int i) { return *engines_[i]; }

  /// Starts (or resumes) all engines.
  void StartEngines();

  /// Stops engines and runs until all are idle (bounded by `max_wait`).
  void StopEngines(SimTime max_wait = 200 * kMillisecond);

  void SetRecording(bool on);

  /// Convenience: start engines, run a warm-up, record for `measure`,
  /// return the aggregated metrics. Engines keep running afterwards.
  RunMetrics Run(SimTime warmup, SimTime measure);

  /// Aggregates engine metrics recorded so far; `duration` is the measured
  /// window length used for rate computation.
  RunMetrics Collect(SimTime duration) const;

  /// NetLock-only: profile the workload with all locks on servers for
  /// `profile_duration`, drain, and return the harvested demands (input to
  /// KnapsackAllocate / RandomAllocate). Engines are left stopped+idle.
  std::vector<LockDemand> ProfileDemands(SimTime profile_duration);

 private:
  std::uint64_t GrantsServedBySwitch() const;
  std::uint64_t GrantsServedByServers() const;

  TestbedConfig config_;
  Simulator sim_;
  std::unique_ptr<Network> net_;

  // Exactly one of these is set, per config_.system.
  std::unique_ptr<ShardedNetLock> sharded_;
  std::unique_ptr<SelfDrivingController> controller_;
  std::unique_ptr<ServerOnlyManager> server_only_;
  std::unique_ptr<DslrManager> dslr_;
  std::unique_ptr<DrtmManager> drtm_;
  std::unique_ptr<NetChainSwitch> netchain_;

  std::vector<std::unique_ptr<ClientMachine>> machines_;
  std::vector<std::unique_ptr<LockSession>> sessions_;
  std::vector<std::unique_ptr<TxnEngine>> engines_;

  std::uint64_t switch_grants_at_record_ = 0;
  std::uint64_t server_grants_at_record_ = 0;
};

}  // namespace netlock
