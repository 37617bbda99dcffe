// Shared experiment helpers: canonical demand estimates for microbenchmark
// lock sets and TPC-C, and small utilities the figure benches share.
#pragma once

#include <vector>

#include "common/types.h"
#include "harness/testbed.h"
#include "workload/micro.h"
#include "workload/tpcc.h"

namespace netlock {

/// Demands for a uniform microbenchmark lock set: equal rates, contention
/// sized from the expected number of concurrent closed-loop clients per
/// lock (bounded below so transient pile-ups queue in the switch rather
/// than overflowing constantly, and above by the client count).
std::vector<LockDemand> UniformMicroDemands(const MicroConfig& config,
                                            int num_engines);

/// Paper Section 6.1 TPC-C contention settings, expressed as total
/// warehouses for a given client-machine count.
inline std::uint32_t TpccWarehouses(int client_machines,
                                    bool high_contention) {
  return high_contention ? static_cast<std::uint32_t>(client_machines)
                         : static_cast<std::uint32_t>(10 * client_machines);
}

/// Workload factory for TPC-C: engine i's home warehouse is spread across
/// the warehouse space the way TPC-C terminals are. The prototype's
/// home_warehouse is overridden per engine.
std::function<std::unique_ptr<WorkloadGenerator>(int)> TpccFactory(
    TpccConfig prototype);
std::function<std::unique_ptr<WorkloadGenerator>(int)> TpccFactory(
    std::uint32_t warehouses);

/// Workload factory producing identical microbenchmark generators.
std::function<std::unique_ptr<WorkloadGenerator>(int)> MicroFactory(
    MicroConfig config);

/// Runs the standard NetLock setup for a testbed whose system is kNetLock:
/// profile demands on the servers, allocate `capacity` switch slots with
/// Algorithm 3 (or the random strawman), install. Returns the demands.
std::vector<LockDemand> ProfileAndInstall(Testbed& testbed,
                                          std::uint32_t capacity,
                                          bool random_strawman = false,
                                          SimTime profile_duration =
                                              100 * kMillisecond,
                                          std::uint64_t random_seed = 1);

/// Runs `num_tasks` independent simulations on up to `threads` worker
/// threads. Each task gets its own SimContext — build the task's Testbed
/// with `config.context = &context` so the run shares no state with its
/// siblings. After every task finishes, each context's metrics are folded
/// into `merge_into` (a bench passes its report's context) **in task
/// order**, so the final registry snapshot — and therefore the bench
/// report — is byte-identical to a serial run sharing `merge_into`.
///
/// threads <= 1 executes inline on the calling thread (no pool), which is
/// the serial path benches take without --jobs. Tracing is per-context;
/// traces recorded inside tasks are not merged, so benches that write
/// TRACE files should run their traced scenario outside the sweep.
void ParallelSweep(int num_tasks, int threads,
                   const std::function<void(int task, SimContext& context)>&
                       task,
                   SimContext& merge_into);

}  // namespace netlock
