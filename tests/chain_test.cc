// Tests for chain-replicated NetLock switches: replica lock-step,
// single-emission discipline, quota/overflow through the chain, and the
// headline property — head failover with zero lease wait because the tail
// already holds the state.
#include <gtest/gtest.h>

#include "core/control_plane.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "testing/lock_oracle.h"
#include "test_util.h"

namespace netlock {
namespace {

using testing::MakeAcquire;
using testing::MakeRelease;
using testing::PacketCatcher;

class ChainBasicsTest : public ::testing::Test {
 protected:
  explicit ChainBasicsTest(std::uint8_t priorities = 1) : net_(sim_, 1000) {
    LockSwitchConfig config;
    config.queue_capacity = 256;
    config.array_size = 64;
    config.max_locks = 16;
    config.num_priorities = priorities;
    head_ = std::make_unique<LockSwitch>(net_, config);
    tail_ = std::make_unique<LockSwitch>(net_, config);
    server_ = std::make_unique<LockServer>(net_, LockServerConfig{});
    client_ = std::make_unique<PacketCatcher>(net_);
    server_->set_switch_node(head_->node());
  }

  void Wire(LockId lock, std::uint32_t slots) {
    ASSERT_TRUE(head_->InstallLock(lock, server_->node(), slots));
    ASSERT_TRUE(tail_->InstallLock(lock, server_->node(), slots));
    head_->ConfigureChainHead(tail_->node());
    tail_->ConfigureChainTail(head_->node());
  }

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority prio = 0) {
    net_.Send(MakeLockPacket(
        client_->node(), head_->node(),
        MakeAcquire(lock, mode, txn, client_->node(), prio)));
    sim_.Run();
  }

  void Release(LockId lock, LockMode mode, TxnId txn, Priority prio = 0) {
    net_.Send(MakeLockPacket(
        client_->node(), head_->node(),
        MakeRelease(lock, mode, txn, client_->node(), prio)));
    sim_.Run();
  }

  /// Queued entries of `lock` on `sw`, over every class.
  static std::uint32_t Entries(const LockSwitch& sw, LockId lock) {
    std::uint32_t entries = 0;
    for (const ClassRing& ring : sw.Debug(lock).rings) entries += ring.count;
    return entries;
  }

  /// Head and tail hold the same registers for `lock`.
  void ExpectLockStep(LockId lock) const {
    const auto h = head_->Debug(lock);
    const auto t = tail_->Debug(lock);
    ASSERT_EQ(h.rings.size(), t.rings.size());
    for (std::size_t c = 0; c < h.rings.size(); ++c) {
      EXPECT_EQ(h.rings[c].head, t.rings[c].head) << "class " << c;
      EXPECT_EQ(h.rings[c].tail, t.rings[c].tail) << "class " << c;
      EXPECT_EQ(h.rings[c].count, t.rings[c].count) << "class " << c;
      EXPECT_EQ(h.rings[c].xcnt, t.rings[c].xcnt) << "class " << c;
      EXPECT_EQ(h.rings[c].granted, t.rings[c].granted) << "class " << c;
    }
    EXPECT_EQ(h.meta.overflow, t.meta.overflow);
    EXPECT_EQ(h.meta.held_exclusive, t.meta.held_exclusive);
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockSwitch> head_;
  std::unique_ptr<LockSwitch> tail_;
  std::unique_ptr<LockServer> server_;
  std::unique_ptr<PacketCatcher> client_;
};

TEST_F(ChainBasicsTest, GrantsEmittedOnceByTailWithHeadSource) {
  Wire(1, 8);
  Acquire(1, LockMode::kExclusive, 7);
  const auto grants = client_->Grants();
  ASSERT_EQ(grants.size(), 1u);  // Exactly one grant, not two.
  EXPECT_EQ(grants[0].txn_id, 7u);
  EXPECT_EQ(tail_->stats().grants, 1u);
  // Head applied the same op (its counter moved) but emitted nothing.
  EXPECT_EQ(head_->stats().grants, 1u);
}

TEST_F(ChainBasicsTest, ReplicasStayInLockStep) {
  Wire(1, 8);
  for (TxnId txn = 0; txn < 5; ++txn) {
    Acquire(1, txn % 2 ? LockMode::kShared : LockMode::kExclusive, txn);
  }
  Release(1, LockMode::kExclusive, 0);
  ExpectLockStep(1);
}

TEST_F(ChainBasicsTest, ReleaseCascadeReplicates) {
  Wire(1, 16);
  Acquire(1, LockMode::kExclusive, 1);
  Acquire(1, LockMode::kShared, 2);
  Acquire(1, LockMode::kShared, 3);
  client_->Clear();
  Release(1, LockMode::kExclusive, 1);
  // The shared batch is granted once (by the tail).
  EXPECT_TRUE(client_->HasGrantFor(2));
  EXPECT_TRUE(client_->HasGrantFor(3));
  EXPECT_EQ(client_->Grants().size(), 2u);
  EXPECT_EQ(Entries(*head_, 1), Entries(*tail_, 1));
}

TEST_F(ChainBasicsTest, QuotaRejectEmittedOnceThroughChain) {
  Wire(1, 8);
  Wire(2, 8);
  head_->quota().Configure(/*tenant=*/0, /*rate=*/10.0, /*burst=*/1);
  Acquire(1, LockMode::kExclusive, 1);
  Acquire(2, LockMode::kExclusive, 2);  // Over quota at the head.
  EXPECT_TRUE(client_->HasGrantFor(1));
  int rejects = 0;
  for (const auto& msg : client_->received()) {
    rejects += msg.op == LockOp::kReject;
  }
  EXPECT_EQ(rejects, 1);
  // Neither replica enqueued the rejected op.
  EXPECT_EQ(Entries(*head_, 2), 0u);
  EXPECT_EQ(Entries(*tail_, 2), 0u);
}

TEST_F(ChainBasicsTest, OverflowProtocolWorksThroughChain) {
  Wire(1, 2);
  for (TxnId txn = 1; txn <= 5; ++txn) {
    Acquire(1, LockMode::kExclusive, txn);
  }
  EXPECT_EQ(server_->OverflowDepth(1), 3u);  // One buffered copy, not two.
  std::vector<TxnId> order;
  for (int round = 0; round < 32 && order.size() < 5; ++round) {
    for (const auto& g : client_->Grants()) {
      if (std::find(order.begin(), order.end(), g.txn_id) == order.end()) {
        order.push_back(g.txn_id);
        Release(1, LockMode::kExclusive, g.txn_id);
      }
    }
  }
  EXPECT_EQ(order, (std::vector<TxnId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Entries(*head_, 1), 0u);
  EXPECT_EQ(Entries(*tail_, 1), 0u);
}

class PriorityChainTest : public ChainBasicsTest {
 protected:
  PriorityChainTest() : ChainBasicsTest(/*priorities=*/2) {}
};

// Two priority classes through a chain: acquires, releases and the
// overflow protocol's pushes replicate, the tail alone emits, and the
// replicas' per-class rings stay in lock-step.
TEST_F(PriorityChainTest, ReplicatesAcquiresReleasesAndPushes) {
  Wire(1, 6);  // Three slots per class.
  for (TxnId txn = 1; txn <= 5; ++txn) {
    // 1 holds, 2 and 3 wait, class 1 is full: 4 and 5 go to q2.
    Acquire(1, LockMode::kExclusive, txn, /*prio=*/1);
  }
  Acquire(1, LockMode::kExclusive, 6, /*prio=*/0);  // Episode on: q2.
  EXPECT_EQ(server_->OverflowDepth(1), 3u);  // One buffered copy each.
  ExpectLockStep(1);
  std::vector<TxnId> order;
  for (int round = 0; round < 32 && order.size() < 6; ++round) {
    for (const auto& g : client_->Grants()) {
      if (std::find(order.begin(), order.end(), g.txn_id) == order.end()) {
        order.push_back(g.txn_id);
        Release(1, LockMode::kExclusive, g.txn_id, g.priority);
        ExpectLockStep(1);
      }
    }
  }
  // q2 is one FIFO per lock. Its entries return to their own classes'
  // rings: 4 finds q1 empty and is granted, then class 0's 6 goes before
  // class 1's 5.
  EXPECT_EQ(order, (std::vector<TxnId>{1, 2, 3, 4, 6, 5}));
  EXPECT_EQ(client_->Grants().size(), 6u);  // Emitted once, by the tail.
  EXPECT_EQ(head_->stats().pushes_accepted, 3u);
  EXPECT_EQ(tail_->stats().pushes_accepted, 3u);
  EXPECT_EQ(server_->OverflowDepth(1), 0u);
  EXPECT_EQ(Entries(*head_, 1), 0u);
  EXPECT_EQ(Entries(*tail_, 1), 0u);
}

// End-to-end: failover with no lease wait.
TEST(ChainFailoverTest, TailContinuesInstantlyWithHeldLocks) {
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 4;
  config.lock_servers = 2;
  config.lease = 50 * kMillisecond;  // Long: failover must NOT wait for it.
  config.lease_poll_interval = 5 * kMillisecond;
  config.txn_config.think_time = 5 * kMicrosecond;
  MicroConfig micro;
  micro.num_locks = 64;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<testing::LockOracle>();
  std::vector<NetLockSession*> raw_sessions;
  config.session_wrapper = [&](std::unique_ptr<LockSession> inner) {
    raw_sessions.push_back(static_cast<NetLockSession*>(inner.get()));
    return std::make_unique<testing::OracleSession>(std::move(inner),
                                                    *oracle);
  };
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));

  LockSwitch tail(testbed.net(), config.switch_config);
  for (NetLockSession* s : raw_sessions) {
    testbed.net().SetLatency(s->node(), tail.node(), 2500);
  }
  for (int i = 0; i < testbed.netlock().num_servers(); ++i) {
    testbed.net().SetLatency(tail.node(),
                             testbed.netlock().server(i).node(), 1500);
  }
  testbed.net().SetLatency(testbed.netlock().lock_switch().node(),
                           tail.node(), 1000);
  ControlPlane& chain = testbed.netlock().control_plane();
  chain.AttachStandby(tail, ControlPlane::Standby::kHot);
  for (NetLockSession* s : raw_sessions) chain.RegisterSession(s);

  testbed.StartEngines();
  testbed.sim().RunUntil(30 * kMillisecond);
  testbed.SetRecording(true);
  std::uint64_t commits_before = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits_before += testbed.engine(i).metrics().txn_commits;
  }

  chain.FailSwitch();
  EXPECT_EQ(chain.active_switch(), tail.node());
  // Within a small fraction of the 50 ms lease, service is back at full
  // rate: the tail had the state, no lease expiry was needed.
  testbed.sim().RunUntil(testbed.sim().now() + 5 * kMillisecond);
  std::uint64_t commits_after = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits_after += testbed.engine(i).metrics().txn_commits;
  }
  // 8 engines x ~10 us/txn x 5 ms >> 1000 commits if service continued.
  EXPECT_GT(commits_after - commits_before, 1000u);
  EXPECT_EQ(oracle->violations(), 0u);
  testbed.StopEngines(kSecond);
}

}  // namespace
}  // namespace netlock
