// Self-driving controller tests: IncrementalKnapsack hysteresis
// properties, the ControllerCore EWMA model and its dampers (dwell, cost
// model, migration budget), closed-loop convergence on the testbed
// (stationary => no migrations; step change => re-converges), and the rack
// balancer.
#include "core/controller.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "core/memory_alloc.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "workload/micro.h"

namespace netlock {
namespace {

std::map<LockId, std::uint32_t> SlotMap(const Allocation& a) {
  return {a.switch_slots.begin(), a.switch_slots.end()};
}

// --- IncrementalKnapsack -------------------------------------------------

TEST(IncrementalKnapsackTest, NoBoostFullSliceMatchesBatchObjective) {
  // With incumbent_boost = 1.0 and every lock in the dirty slice, the
  // incremental re-solve is the plain fractional knapsack: same objective
  // as Algorithm 3 from scratch, whatever the seed was.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<LockDemand> demands;
    const int n = 2 + static_cast<int>(rng() % 10);
    for (int i = 0; i < n; ++i) {
      demands.push_back(LockDemand{
          static_cast<LockId>(i),
          static_cast<double>(1 + rng() % 1000),
          static_cast<std::uint32_t>(1 + rng() % 8)});
    }
    const std::uint32_t capacity = 1 + static_cast<std::uint32_t>(rng() % 24);
    // Seed from a *different* (stale) demand vector: the seed must not
    // bias the boost-free result.
    std::vector<LockDemand> stale = demands;
    for (LockDemand& d : stale) d.rate = static_cast<double>(1 + rng() % 1000);
    const Allocation seed = KnapsackAllocate(stale, capacity);

    IncrementalPolicy policy;
    policy.incumbent_boost = 1.0;
    const Allocation inc =
        IncrementalKnapsack(seed, demands, capacity, policy);
    const Allocation batch = KnapsackAllocate(demands, capacity);
    EXPECT_NEAR(AllocationObjective(demands, inc),
                AllocationObjective(demands, batch), 1e-9)
        << "trial " << trial;
  }
}

TEST(IncrementalKnapsackTest, StationaryResolveReturnsSeedUnchanged) {
  const std::vector<LockDemand> demands = {
      {1, 900.0, 4}, {2, 500.0, 2}, {3, 80.0, 8}, {4, 30.0, 1}};
  const std::uint32_t capacity = 8;
  const Allocation seed = KnapsackAllocate(demands, capacity);
  IncrementalPolicy policy;
  policy.incumbent_boost = 1.3;
  const Allocation resolved =
      IncrementalKnapsack(seed, demands, capacity, policy);
  EXPECT_EQ(SlotMap(resolved), SlotMap(seed));
}

TEST(IncrementalKnapsackTest, UntouchedIncumbentsKeepSlotsVerbatim) {
  Allocation seed;
  seed.switch_slots = {{1, 4}, {2, 4}};
  // The slice mentions only lock 3; locks 1 and 2 are not re-examined.
  const std::vector<LockDemand> slice = {{3, 50.0, 4}};
  const Allocation resolved = IncrementalKnapsack(seed, slice, 12);
  const auto slots = SlotMap(resolved);
  ASSERT_EQ(slots.count(1), 1u);
  ASSERT_EQ(slots.count(2), 1u);
  EXPECT_EQ(slots.at(1), 4u);
  EXPECT_EQ(slots.at(2), 4u);
  // Lock 3 packs into the remaining 4 slots.
  ASSERT_EQ(slots.count(3), 1u);
  EXPECT_EQ(slots.at(3), 4u);
}

TEST(IncrementalKnapsackTest, ChallengerMustBeatIncumbentByBoost) {
  Allocation seed;
  seed.switch_slots = {{1, 2}};
  IncrementalPolicy policy;
  policy.incumbent_boost = 1.3;
  // Incumbent density 10; challenger density 11 < 13: hysteresis holds it.
  const Allocation held = IncrementalKnapsack(
      seed, {{1, 20.0, 2}, {2, 22.0, 2}}, /*switch_capacity=*/2, policy);
  EXPECT_EQ(SlotMap(held).count(1), 1u);
  EXPECT_EQ(SlotMap(held).count(2), 0u);
  // Challenger density 14 > 13: it displaces the incumbent.
  const Allocation displaced = IncrementalKnapsack(
      seed, {{1, 20.0, 2}, {2, 28.0, 2}}, /*switch_capacity=*/2, policy);
  EXPECT_EQ(SlotMap(displaced).count(1), 0u);
  EXPECT_EQ(SlotMap(displaced).count(2), 1u);
}

// --- ControllerCore ------------------------------------------------------

ControllerConfig CoreConfig() {
  ControllerConfig config;
  config.ewma_alpha = 0.5;
  config.rate_floor = 1.0;
  config.min_dwell = 10 * kMillisecond;
  config.migration_budget = 16;
  config.incumbent_boost = 1.3;
  config.min_resize_delta = 2;
  config.payback_horizon_sec = 0.05;
  config.fixed_migration_cost = 8.0;
  config.drain_cost_per_entry = 2.0;
  return config;
}

TEST(ControllerCoreTest, EwmaSeedsFreshAndSmoothsRepeats) {
  ControllerCore core(CoreConfig());
  const Allocation none;
  core.Observe({{1, 100.0, 4}}, none);
  ASSERT_EQ(core.SmoothedDemands().size(), 1u);
  EXPECT_DOUBLE_EQ(core.SmoothedDemands()[0].rate, 100.0);  // Fresh: seeded.
  core.Observe({{1, 50.0, 4}}, none);
  EXPECT_DOUBLE_EQ(core.SmoothedDemands()[0].rate, 75.0);  // 0.5 EWMA.
}

TEST(ControllerCoreTest, UnobservedEntriesDecayAndColdOnesDrop) {
  ControllerCore core(CoreConfig());
  const Allocation none;
  core.Observe({{1, 8.0, 2}}, none);
  // Quiet windows: rate halves each time; below rate_floor = 1.0 the
  // non-resident entry drops.
  core.Observe({}, none);  // 4.0
  core.Observe({}, none);  // 2.0
  core.Observe({}, none);  // 1.0
  ASSERT_EQ(core.SmoothedDemands().size(), 1u);
  core.Observe({}, none);  // 0.5 < floor: gone.
  EXPECT_TRUE(core.SmoothedDemands().empty());

  // A switch-resident lock survives any number of quiet windows: its
  // eviction must be a planner decision, not model amnesia.
  Allocation installed;
  installed.switch_slots = {{7, 4}};
  core.Observe({{7, 8.0, 2}}, installed);
  for (int i = 0; i < 10; ++i) core.Observe({}, installed);
  EXPECT_EQ(core.SmoothedDemands().size(), 1u);
}

TEST(ControllerCoreTest, DwellFreezesRecentlyMovedLocks) {
  ControllerConfig config = CoreConfig();
  ControllerCore core(config);
  core.MarkMoved(3, /*now=*/kMillisecond);
  EXPECT_TRUE(core.Frozen(3, kMillisecond + config.min_dwell - 1));
  EXPECT_FALSE(core.Frozen(3, kMillisecond + config.min_dwell));

  // A frozen lock is pinned: even a zero-demand incumbent stays installed
  // while its dwell clock runs (counted as skipped_dwell), and is demoted
  // once the dwell expires.
  Allocation installed;
  installed.switch_slots = {{3, 4}};
  core.Observe({{3, 0.0, 1}}, installed);
  Allocation target;
  ControllerStats stats;
  EXPECT_FALSE(core.Plan(installed, /*capacity=*/8,
                         /*now=*/2 * kMillisecond, nullptr, &target, &stats));
  EXPECT_GT(stats.skipped_dwell, 0u);
  EXPECT_TRUE(core.Plan(installed, /*capacity=*/8,
                        /*now=*/kMillisecond + config.min_dwell, nullptr,
                        &target, &stats));
  ASSERT_EQ(target.server_only.size(), 1u);
  EXPECT_EQ(target.server_only[0], 3u);
  EXPECT_EQ(stats.demotions, 1u);
}

TEST(ControllerCoreTest, CostModelBlocksLukewarmPromotions) {
  ControllerConfig config = CoreConfig();
  // gain = rate * 0.05 must beat fixed cost 8 => rate >= 160; a deep
  // server queue adds 2 per entry.
  ControllerCore core(config);
  const Allocation empty;
  core.Observe({{1, 100.0, 2}}, empty);  // gain 5.0 < 8.0.
  Allocation target;
  ControllerStats stats;
  EXPECT_FALSE(core.Plan(empty, /*capacity=*/8, /*now=*/0, nullptr, &target,
                         &stats));
  EXPECT_EQ(stats.skipped_cost, 1u);

  ControllerCore hot(config);
  hot.Observe({{1, 400.0, 2}}, empty);  // gain 20.0 > 8.0: promoted...
  EXPECT_TRUE(hot.Plan(empty, /*capacity=*/8, /*now=*/0, nullptr, &target,
                       &stats));
  EXPECT_EQ(stats.promotions, 1u);

  ControllerCore queued(config);
  queued.Observe({{1, 400.0, 2}}, empty);
  const auto deep = [](LockId) -> std::size_t { return 10; };
  // ...unless the drain would delay 10 queued requests: 8 + 20 > 20.
  EXPECT_FALSE(queued.Plan(empty, /*capacity=*/8, /*now=*/0, deep, &target,
                           &stats));
  EXPECT_EQ(stats.skipped_cost, 2u);
}

TEST(ControllerCoreTest, BudgetCapsMovesPerTick) {
  ControllerConfig config = CoreConfig();
  config.migration_budget = 1;
  ControllerCore core(config);
  const Allocation empty;
  core.Observe({{1, 500.0, 2}, {2, 400.0, 2}}, empty);
  Allocation target;
  ControllerStats stats;
  ASSERT_TRUE(
      core.Plan(empty, /*capacity=*/8, /*now=*/0, nullptr, &target, &stats));
  EXPECT_EQ(stats.promotions, 1u);  // Hottest first...
  EXPECT_EQ(target.switch_slots.size(), 1u);
  EXPECT_EQ(target.switch_slots[0].first, 1u);
  EXPECT_GT(stats.skipped_budget, 0u);  // ...the other waits its turn.
}

// --- SelfDrivingController (testbed integration) -------------------------

// Workload whose lock set the test can swap between RunUntil calls: each
// txn takes one lock drawn uniformly from *locks.
class ListWorkload final : public WorkloadGenerator {
 public:
  ListWorkload(const std::vector<LockId>* locks, LockId space)
      : locks_(locks), space_(space) {}

  void NextInto(Rng& rng, TxnSpec& out) override {
    const std::size_t i =
        static_cast<std::size_t>(rng.NextBounded(locks_->size()));
    out.locks.assign(1, LockRequest{(*locks_)[i], LockMode::kExclusive});
  }
  LockId lock_space() const override { return space_; }

 private:
  const std::vector<LockId>* locks_;
  LockId space_;
};

ControllerConfig FastControllerConfig() {
  ControllerConfig config;
  config.interval = 2 * kMillisecond;
  config.warmup_ticks = 2;
  config.ewma_alpha = 0.4;
  config.min_dwell = 6 * kMillisecond;
  config.migration_budget = 8;
  return config;
}

TestbedConfig ControllerTestbedConfig(SimContext* context) {
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.context = context;
  config.client_machines = 2;
  config.sessions_per_machine = 4;
  config.lock_servers = 2;
  config.seed = 99;
  config.txn_config.think_time = 5 * kMicrosecond;
  config.controller = true;
  config.controller_config = FastControllerConfig();
  return config;
}

TEST(SelfDrivingControllerTest, StationaryWorkloadStopsMigrating) {
  SimContext context;
  TestbedConfig config = ControllerTestbedConfig(&context);
  config.switch_config.queue_capacity = 64;
  MicroConfig micro;
  micro.num_locks = 8;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.sharded().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  ASSERT_TRUE(testbed.has_controller());
  testbed.controller().Start();
  testbed.StartEngines();

  // Let the EWMA settle and any initial correction land.
  testbed.sim().RunUntil(100 * kMillisecond);
  const ControllerStats settled = testbed.controller().stats();
  EXPECT_GT(settled.ticks, 40u);

  // Stationary control property: a settled controller issues zero further
  // migrations on an unchanged workload.
  testbed.sim().RunUntil(200 * kMillisecond);
  const ControllerStats after = testbed.controller().stats();
  EXPECT_EQ(after.promotions, settled.promotions);
  EXPECT_EQ(after.demotions, settled.demotions);
  EXPECT_EQ(after.resizes, settled.resizes);
  EXPECT_EQ(after.rehomes, settled.rehomes);
  EXPECT_GT(after.ticks, settled.ticks);  // It kept watching.

  // Decisions are mirrored into the metrics registry as ctrl.* counters.
  EXPECT_EQ(context.metrics().Counter("ctrl.ticks").value(), after.ticks);
  EXPECT_EQ(context.metrics().Counter("ctrl.promotions").value(),
            after.promotions);
  testbed.controller().Stop();
  testbed.StopEngines(kSecond);
}

TEST(SelfDrivingControllerTest, StepChangeConvergesWithinIntervals) {
  SimContext context;
  TestbedConfig config = ControllerTestbedConfig(&context);
  // Room for only one hot set: 4 locks x 4 slots.
  config.switch_config.queue_capacity = 16;
  std::vector<LockId> hot = {0, 1, 2, 3};
  const std::vector<LockId> next_hot = {24, 25, 26, 27};
  config.workload_factory = [&hot](int) {
    return std::make_unique<ListWorkload>(&hot, 32);
  };
  Testbed testbed(config);
  Allocation initial;
  for (const LockId lock : hot) initial.switch_slots.emplace_back(lock, 4);
  for (LockId lock = 0; lock < 32; ++lock) {
    if (!initial.InSwitch(lock)) initial.server_only.push_back(lock);
  }
  testbed.sharded().InstallAllocation(initial);
  testbed.controller().Start();
  testbed.StartEngines();
  testbed.sim().RunUntil(50 * kMillisecond);
  const ControllerStats before = testbed.controller().stats();
  NetLockManager& manager = testbed.sharded().rack(0);
  for (const LockId lock : next_hot) {
    ASSERT_FALSE(manager.lock_switch().IsInstalled(lock));
  }

  // Step change: the hot set jumps to four server-only locks. The
  // controller must demote the stale incumbents and promote the new hot
  // locks within a bounded number of intervals.
  hot = next_hot;
  testbed.sim().RunUntil(110 * kMillisecond);  // 30 intervals of slack.
  const ControllerStats after = testbed.controller().stats();
  EXPECT_GE(after.promotions, before.promotions + 4);
  EXPECT_GE(after.demotions, before.demotions + 4);
  for (const LockId lock : next_hot) {
    EXPECT_TRUE(manager.lock_switch().IsInstalled(lock)) << "lock " << lock;
  }
  for (LockId lock = 0; lock < 4; ++lock) {
    EXPECT_FALSE(manager.lock_switch().IsInstalled(lock)) << "lock " << lock;
  }
  testbed.controller().Stop();
  testbed.StopEngines(kSecond);
}

TEST(SelfDrivingControllerTest, RackImbalanceTriggersRehome) {
  SimContext context;
  TestbedConfig config = ControllerTestbedConfig(&context);
  config.num_racks = 2;
  config.switch_config.queue_capacity = 32;
  // The lock list is filled in after construction, once the directory can
  // tell us which locks live on rack 0.
  std::vector<LockId> rack0_locks;
  config.workload_factory = [&rack0_locks](int) {
    return std::make_unique<ListWorkload>(&rack0_locks, 64);
  };
  Testbed testbed(config);
  for (LockId lock = 0; lock < 64 && rack0_locks.size() < 8; ++lock) {
    if (testbed.sharded().directory().RackFor(lock) == 0) {
      rack0_locks.push_back(lock);
    }
  }
  ASSERT_EQ(rack0_locks.size(), 8u);
  Allocation all_server;
  for (LockId lock = 0; lock < 64; ++lock) {
    all_server.server_only.push_back(lock);
  }
  testbed.sharded().InstallAllocation(all_server);
  testbed.controller().Start();
  testbed.StartEngines();

  // All demand lands on rack 0: hot rate > 1.5x the two-rack mean, so the
  // balancer re-homes hot locks onto the idle rack.
  testbed.sim().RunUntil(100 * kMillisecond);
  EXPECT_GT(testbed.controller().stats().rehomes, 0u);
  EXPECT_GT(testbed.sharded().directory().num_overrides(), 0u);
  EXPECT_EQ(context.metrics().Counter("ctrl.rehomes").value(),
            testbed.controller().stats().rehomes);
  testbed.controller().Stop();
  testbed.StopEngines(kSecond);
}

}  // namespace
}  // namespace netlock
