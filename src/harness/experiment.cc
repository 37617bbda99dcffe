#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common/check.h"
#include "core/memory_alloc.h"

namespace netlock {

void ParallelSweep(int num_tasks, int threads,
                   const std::function<void(int, SimContext&)>& task,
                   SimContext& merge_into) {
  NETLOCK_CHECK(num_tasks >= 0);
  NETLOCK_CHECK(task != nullptr);
  std::vector<std::unique_ptr<SimContext>> contexts;
  contexts.reserve(num_tasks);
  for (int i = 0; i < num_tasks; ++i) {
    contexts.push_back(std::make_unique<SimContext>());
  }
  if (threads <= 1) {
    for (int i = 0; i < num_tasks; ++i) task(i, *contexts[i]);
  } else {
    // Work-stealing by atomic index: tasks vary wildly in cost (slot
    // sweeps), so static partitioning would leave workers idle.
    std::atomic<int> next{0};
    auto worker = [&]() {
      for (int i = next.fetch_add(1, std::memory_order_relaxed);
           i < num_tasks;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        task(i, *contexts[i]);
      }
    };
    std::vector<std::thread> pool;
    const int n = std::min(threads, num_tasks);
    pool.reserve(n);
    for (int t = 0; t < n; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  for (int i = 0; i < num_tasks; ++i) {
    merge_into.metrics().MergeFrom(contexts[i]->metrics());
  }
}

std::vector<LockDemand> UniformMicroDemands(const MicroConfig& config,
                                            int num_engines) {
  std::vector<LockDemand> demands;
  demands.reserve(config.num_locks);
  const std::uint32_t expected_concurrent = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, 4ull * num_engines / config.num_locks));
  // Floor of 2: transient two-client pile-ups queue in the switch; rarer
  // deeper pile-ups take the overflow path. A higher floor would exhaust
  // switch memory on large uncontended lock sets and push half the locks
  // to the servers, which costs far more than occasional overflow.
  const std::uint32_t contention = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(num_engines),
      std::max(2u, expected_concurrent));
  for (LockId i = 0; i < config.num_locks; ++i) {
    demands.push_back(
        LockDemand{config.first_lock + i, /*rate=*/1.0, contention});
  }
  return demands;
}

std::function<std::unique_ptr<WorkloadGenerator>(int)> TpccFactory(
    TpccConfig prototype) {
  return [prototype](int engine) {
    TpccConfig config = prototype;
    config.home_warehouse =
        static_cast<std::uint32_t>(engine) % config.warehouses;
    return std::make_unique<TpccWorkload>(config);
  };
}

std::function<std::unique_ptr<WorkloadGenerator>(int)> TpccFactory(
    std::uint32_t warehouses) {
  TpccConfig config;
  config.warehouses = warehouses;
  return TpccFactory(config);
}

std::function<std::unique_ptr<WorkloadGenerator>(int)> MicroFactory(
    MicroConfig config) {
  return [config](int) { return std::make_unique<MicroWorkload>(config); };
}

std::vector<LockDemand> ProfileAndInstall(Testbed& testbed,
                                          std::uint32_t capacity,
                                          bool random_strawman,
                                          SimTime profile_duration,
                                          std::uint64_t random_seed) {
  std::vector<LockDemand> demands = testbed.ProfileDemands(profile_duration);
  // Solve per rack: each rack's switch has its own `capacity` slots and
  // only ever sees the demands the directory routes to it. Single-rack
  // topologies reduce to the original whole-space solve.
  ShardedNetLock& sharded = testbed.sharded();
  std::vector<std::vector<LockDemand>> per_rack(sharded.num_racks());
  for (const LockDemand& demand : demands) {
    per_rack[sharded.directory().RackFor(demand.lock)].push_back(demand);
  }
  for (int r = 0; r < sharded.num_racks(); ++r) {
    const Allocation allocation =
        random_strawman
            ? RandomAllocate(per_rack[r], capacity, random_seed + r)
            : KnapsackAllocate(per_rack[r], capacity);
    sharded.rack(r).InstallAllocation(allocation);
  }
  return demands;
}

}  // namespace netlock
