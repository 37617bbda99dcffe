// Tests for the open-loop (Poisson) load engine: offered rate tracking,
// queueing-delay visibility under overload, overload shedding, and safety
// with multiple outstanding transactions.
#include <gtest/gtest.h>

#include "client/open_loop.h"
#include "dataplane/switch_dataplane.h"
#include "testing/lock_oracle.h"
#include "test_util.h"
#include "workload/micro.h"

namespace netlock {
namespace {

class OpenLoopTest : public ::testing::Test {
 protected:
  OpenLoopTest() : net_(sim_, 1000) {
    LockSwitchConfig config;
    config.queue_capacity = 4096;
    config.array_size = 1024;
    config.max_locks = 2048;
    switch_ = std::make_unique<LockSwitch>(net_, config);
    server_ = std::make_unique<testing::PacketCatcher>(net_);
    machine_ = std::make_unique<ClientMachine>(net_);
  }

  std::unique_ptr<NetLockSession> MakeSession() {
    NetLockSession::Config config;
    config.switch_node = switch_->node();
    return std::make_unique<NetLockSession>(*machine_, config);
  }

  void InstallLocks(LockId n, std::uint32_t slots) {
    for (LockId l = 0; l < n; ++l) {
      ASSERT_TRUE(switch_->InstallLock(l, server_->node(), slots));
    }
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockSwitch> switch_;
  std::unique_ptr<testing::PacketCatcher> server_;
  std::unique_ptr<ClientMachine> machine_;
};

TEST_F(OpenLoopTest, TracksOfferedRateWhenUnderloaded) {
  InstallLocks(1000, 4);
  auto session = MakeSession();
  MicroConfig micro;
  micro.num_locks = 1000;
  OpenLoopConfig config;
  config.offered_tps = 50'000.0;
  config.think_time = 0;
  OpenLoopEngine engine(sim_, *session,
                        std::make_unique<MicroWorkload>(micro), 1, 11,
                        config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(200 * kMillisecond);
  engine.Stop();
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  // Completed ~= offered (Poisson noise) and nothing dropped.
  EXPECT_NEAR(static_cast<double>(engine.metrics().txn_commits), 10000.0,
              500.0);
  EXPECT_EQ(engine.dropped_arrivals(), 0u);
  // Uncontended latency ~= one switch round trip.
  EXPECT_LT(engine.metrics().lock_latency.Median(), 10 * kMicrosecond);
}

TEST_F(OpenLoopTest, OverloadShowsQueueingAndShedding) {
  // One heavily contended lock at far more offered load than its serial
  // capacity: latency explodes and arrivals get shed — open-loop behaviour
  // a closed-loop engine cannot exhibit.
  InstallLocks(1, 64);
  auto session = MakeSession();
  MicroConfig micro;
  micro.num_locks = 1;
  OpenLoopConfig config;
  config.offered_tps = 200'000.0;  // >> 1 / (RTT + think).
  config.think_time = 10 * kMicrosecond;
  config.max_outstanding = 32;
  OpenLoopEngine engine(sim_, *session,
                        std::make_unique<MicroWorkload>(micro), 1, 12,
                        config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(100 * kMillisecond);
  engine.Stop();
  sim_.RunUntil(sim_.now() + 50 * kMillisecond);
  EXPECT_GT(engine.dropped_arrivals(), 1000u);
  EXPECT_GT(engine.metrics().lock_latency.P99(), 100 * kMicrosecond);
  // Throughput is capacity-bound, way below offered.
  EXPECT_LT(engine.metrics().txn_commits, 12000u);
}

TEST_F(OpenLoopTest, SafetyWithManyOutstanding) {
  InstallLocks(16, 64);
  auto inner = MakeSession();
  testing::LockOracle oracle;
  testing::OracleSession session(std::move(inner), oracle);
  MicroConfig micro;
  micro.num_locks = 16;
  micro.locks_per_txn = 3;
  micro.shared_fraction = 0.4;
  OpenLoopConfig config;
  config.offered_tps = 100'000.0;
  config.think_time = 5 * kMicrosecond;
  OpenLoopEngine engine(sim_, session,
                        std::make_unique<MicroWorkload>(micro), 1, 13,
                        config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(100 * kMillisecond);
  engine.Stop();
  sim_.RunUntil(sim_.now() + 50 * kMillisecond);
  EXPECT_EQ(oracle.violations(), 0u);
  EXPECT_GT(engine.metrics().txn_commits, 1000u);
  EXPECT_EQ(engine.outstanding(), 0u);  // Everything drained.
}

// Workload whose transactions sometimes carry no locks at all (e.g. a
// read-only txn fully served by a snapshot). These must commit after think
// time instead of crashing the engine.
class SometimesEmptyWorkload : public WorkloadGenerator {
 public:
  explicit SometimesEmptyWorkload(double empty_fraction)
      : empty_fraction_(empty_fraction) {}

  void NextInto(Rng& rng, TxnSpec& out) override {
    out.locks.clear();
    if (!rng.NextBool(empty_fraction_)) {
      out.locks.push_back({static_cast<LockId>(rng.NextBounded(16)),
                           LockMode::kExclusive});
    }
  }

  LockId lock_space() const override { return 16; }

 private:
  double empty_fraction_;
};

TEST_F(OpenLoopTest, EmptyLockSetCommitsImmediately) {
  // Regression: BeginTxn/AcquireNext indexed txn.spec.locks[0] without
  // checking for an empty lock set (out-of-bounds read; crash under ASan).
  InstallLocks(16, 8);
  auto session = MakeSession();
  OpenLoopConfig config;
  config.offered_tps = 50'000.0;
  config.think_time = 2 * kMicrosecond;
  OpenLoopEngine engine(sim_, *session,
                        std::make_unique<SometimesEmptyWorkload>(1.0), 1, 21,
                        config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(50 * kMillisecond);
  engine.Stop();
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  // Every arrival commits (after think time) without issuing any acquires.
  EXPECT_GT(engine.metrics().txn_commits, 1000u);
  EXPECT_EQ(engine.metrics().lock_requests, 0u);
  EXPECT_EQ(engine.outstanding(), 0u);
}

TEST_F(OpenLoopTest, MixedEmptyAndNonEmptyTxnsDrainCleanly) {
  InstallLocks(16, 8);
  auto session = MakeSession();
  OpenLoopConfig config;
  config.offered_tps = 50'000.0;
  config.think_time = 0;
  OpenLoopEngine engine(sim_, *session,
                        std::make_unique<SometimesEmptyWorkload>(0.5), 1, 22,
                        config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(50 * kMillisecond);
  engine.Stop();
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  EXPECT_GT(engine.metrics().txn_commits, 1000u);
  EXPECT_GT(engine.metrics().lock_requests, 0u);
  EXPECT_EQ(engine.outstanding(), 0u);
}

}  // namespace
}  // namespace netlock
