// Tests for the client library: session grant matching, retransmission on
// loss, rejection backoff, machine TX rate limiting, and the transaction
// engine's closed-loop behaviour.
// Session tests that hold on both session routes (switch and home server)
// run once per route.
#include <gtest/gtest.h>

#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "client/client.h"
#include "client/txn.h"
#include "dataplane/switch_dataplane.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "server/lock_server.h"
#include "test_util.h"
#include "workload/micro.h"

namespace netlock {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : net_(sim_, /*latency=*/1000) {
    LockSwitchConfig config;
    config.queue_capacity = 128;
    config.array_size = 64;
    config.max_locks = 16;
    switch_ = std::make_unique<LockSwitch>(net_, config);
    server_ = std::make_unique<testing::PacketCatcher>(net_);
    machine_ = std::make_unique<ClientMachine>(net_, /*tx_service=*/55);
  }

  std::unique_ptr<NetLockSession> MakeSession(
      SimTime retry_timeout = 2 * kMillisecond) {
    NetLockSession::Config config;
    config.switch_node = switch_->node();
    config.retry_timeout = retry_timeout;
    return std::make_unique<NetLockSession>(*machine_, config);
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockSwitch> switch_;
  std::unique_ptr<testing::PacketCatcher> server_;
  std::unique_ptr<ClientMachine> machine_;
};

TEST_F(ClientTest, AcquireGrantRoundTrip) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  auto session = MakeSession();
  AcquireResult result = AcquireResult::kTimeout;
  session->Acquire(1, LockMode::kExclusive, 42, 0,
                   [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(result, AcquireResult::kGranted);
}

TEST_F(ClientTest, GrantLatencyIsClientSwitchRtt) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  auto session = MakeSession();
  SimTime granted_at = 0;
  session->Acquire(1, LockMode::kExclusive, 42, 0,
                   [&](AcquireResult) { granted_at = sim_.now(); });
  sim_.RunUntil(kMillisecond);
  // TX service (55) + 1000 out + 1000 back.
  EXPECT_EQ(granted_at, 55u + 1000u + 1000u);
}

// Lease discipline: once a grant is within the safety margin of its lease
// expiring, the manager's lease sweep may already have force-released the
// entry — sending the release would blind-pop a different waiter's slot.
// The session must drop it and let the sweep reclaim the entry.
TEST_F(ClientTest, ReleaseSuppressedNearLeaseExpiry) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  NetLockSession::Config config;
  config.switch_node = switch_->node();
  config.lease = 5 * kMillisecond;
  config.lease_release_margin = 500 * kMicrosecond;
  auto session = std::make_unique<NetLockSession>(*machine_, config);
  bool granted = false;
  session->Acquire(1, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { granted = r == AcquireResult::kGranted; });
  sim_.RunUntil(kMillisecond);
  ASSERT_TRUE(granted);
  // Hold past lease - margin; the release must be suppressed.
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  const std::uint64_t releases_before = switch_->stats().releases;
  session->Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(sim_.now() + kMillisecond);
  EXPECT_EQ(session->releases_suppressed(), 1u);
  EXPECT_EQ(switch_->stats().releases, releases_before);
}

// A prompt release (well inside the lease) is sent normally.
TEST_F(ClientTest, PromptReleaseNotSuppressed) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  NetLockSession::Config config;
  config.switch_node = switch_->node();
  config.lease = 5 * kMillisecond;
  config.lease_release_margin = 500 * kMicrosecond;
  auto session = std::make_unique<NetLockSession>(*machine_, config);
  bool granted = false;
  session->Acquire(1, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { granted = r == AcquireResult::kGranted; });
  sim_.RunUntil(kMillisecond);
  ASSERT_TRUE(granted);
  session->Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(sim_.now() + kMillisecond);
  EXPECT_EQ(session->releases_suppressed(), 0u);
  EXPECT_EQ(switch_->stats().releases, 1u);
}

// The session's two routes: acquires to the lock switch (NetLock), or to
// the lock's home server (the server-only baseline). The tests below run
// on both; the switch route's manager is switch_ (locks installed), the
// server route's is a LockServer that owns whatever it is asked for.
enum class Route { kSwitch, kServer };

class SessionRouteTest : public ClientTest,
                         public ::testing::WithParamInterface<Route> {
 protected:
  bool server_route() const { return GetParam() == Route::kServer; }

  /// Makes `lock` grantable on this route's manager.
  void Serve(LockId lock) {
    if (!server_route()) {
      ASSERT_TRUE(switch_->InstallLock(lock, server_->node(), 8));
    }
  }

  /// The node that grants on this route.
  NodeId manager() const {
    return server_route() ? lock_server_.node() : switch_->node();
  }

  /// A session whose acquires go to `target` (default: the manager) on
  /// this route.
  std::unique_ptr<NetLockSession> MakeRoutedSession(
      SimTime retry_timeout = 2 * kMillisecond,
      NodeId target = kInvalidNode) {
    if (target == kInvalidNode) target = manager();
    NetLockSession::Config config;
    config.retry_timeout = retry_timeout;
    if (server_route()) {
      config.home_servers = {target};
    } else {
      config.switch_node = target;
    }
    return std::make_unique<NetLockSession>(*machine_, config);
  }

  std::uint64_t ManagerReleases() const {
    return server_route() ? lock_server_.stats().releases
                          : switch_->stats().releases;
  }
  bool ManagerQueueEmpty(LockId lock) const {
    return server_route() ? lock_server_.QueueEmpty(lock)
                          : switch_->QueueEmpty(lock);
  }

  LockServer lock_server_{net_};
};

INSTANTIATE_TEST_SUITE_P(
    Routes, SessionRouteTest, ::testing::Values(Route::kSwitch, Route::kServer),
    [](const ::testing::TestParamInfo<Route>& info) {
      return info.param == Route::kSwitch ? "Switch" : "Server";
    });

TEST_P(SessionRouteTest, RetransmitsAfterLoss) {
  Serve(1);
  net_.SetLossProbability(1.0);  // Drop everything...
  auto session = MakeRoutedSession(/*retry_timeout=*/kMillisecond);
  AcquireResult result = AcquireResult::kRejected;
  bool done = false;
  session->Acquire(1, LockMode::kExclusive, 42, 0, [&](AcquireResult r) {
    result = r;
    done = true;
  });
  sim_.RunUntil(2 * kMillisecond);
  net_.SetLossProbability(0.0);  // ...then heal the network.
  sim_.RunUntil(10 * kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(result, AcquireResult::kGranted);
  EXPECT_GE(session->retransmits(), 1u);
}

// Regression test for a fuzzer-found bug: a network-duplicated copy of an
// already-consumed grant used to take the unsolicited-grant path and
// ghost-release the holder's queue entry, granting the lock to the next
// waiter while the holder still held it. The duplicate-grant filter must
// drop the copy (same grant nonce) while still ghost-releasing genuine
// second entries created by retransmitted acquires (fresh nonce).
TEST_P(SessionRouteTest, DuplicatedGrantDoesNotGhostReleaseHeldLock) {
  Serve(1);
  auto a = MakeRoutedSession();
  auto b = MakeRoutedSession();
  LinkFaults faults;
  faults.duplicate = 1.0;  // Every packet is delivered twice.
  net_.SetDefaultFaults(faults);
  int a_granted = 0;
  int b_granted = 0;
  a->Acquire(1, LockMode::kExclusive, 1, 0, [&](AcquireResult r) {
    a_granted += r == AcquireResult::kGranted;
  });
  sim_.RunUntil(kMillisecond);
  ASSERT_EQ(a_granted, 1);
  b->Acquire(1, LockMode::kExclusive, 2, 0, [&](AcquireResult r) {
    b_granted += r == AcquireResult::kGranted;
  });
  sim_.RunUntil(2 * kMillisecond);
  // Mutual exclusion: B waits while A holds, duplicates notwithstanding.
  EXPECT_EQ(b_granted, 0);
  a->Release(1, LockMode::kExclusive, 1);
  sim_.RunUntil(4 * kMillisecond);
  // The ghost entries from duplicated acquires are reclaimed at wire speed
  // and B is granted exactly once.
  EXPECT_EQ(b_granted, 1);
}

TEST_P(SessionRouteTest, UnsolicitedGrantReleasedToSender) {
  Serve(1);
  // The session's route points at a silent node, not at the manager.
  auto session = MakeRoutedSession(2 * kMillisecond, server_->node());
  // The manager grants something the session never asked for (stale
  // ghost).
  LockHeader ghost;
  ghost.op = LockOp::kAcquire;
  ghost.lock_id = 1;
  ghost.mode = LockMode::kExclusive;
  ghost.txn_id = 99;
  ghost.client_node = session->node();
  net_.Send(MakeLockPacket(session->node(), manager(), ghost));
  sim_.RunUntil(kMillisecond);
  // The grant arrived unsolicited; the auto-release must go back to the
  // sender, not to the session's route.
  EXPECT_EQ(ManagerReleases(), 1u);
  EXPECT_TRUE(ManagerQueueEmpty(1));
  EXPECT_TRUE(server_->received().empty());
}

TEST_P(SessionRouteTest, TimesOutAfterMaxRetries) {
  // The route leads to a node that never answers.
  auto session =
      MakeRoutedSession(/*retry_timeout=*/100 * kMicrosecond, server_->node());
  AcquireResult result = AcquireResult::kGranted;
  session->Acquire(5, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { result = r; });
  sim_.RunUntil(kSecond);
  EXPECT_EQ(result, AcquireResult::kTimeout);
}

// The server route's destination rule: every acquire and cancel for a lock
// reaches HomeServer(lock), and acquires are flagged server-owned.
TEST_F(ClientTest, ServerRouteSendsToHomeServer) {
  testing::PacketCatcher other(net_);
  const std::vector<NodeId> homes = {server_->node(), other.node()};
  NetLockSession::Config config;
  config.home_servers = homes;
  NetLockSession session(*machine_, config);
  constexpr LockId kLocks = 16;
  for (LockId lock = 0; lock < kLocks; ++lock) {
    session.Acquire(lock, LockMode::kExclusive, 7, 0, [](AcquireResult) {});
    session.Cancel(lock, LockMode::kExclusive, 7);
  }
  sim_.RunUntil(kMillisecond);
  std::size_t seen = 0;
  for (const testing::PacketCatcher* catcher : {server_.get(), &other}) {
    for (const LockHeader& hdr : catcher->received()) {
      ++seen;
      EXPECT_EQ(HomeServer(hdr.lock_id, homes), catcher->node());
      if (hdr.op == LockOp::kAcquire) {
        EXPECT_NE(hdr.flags & kFlagServerOwned, 0);
      } else {
        EXPECT_EQ(hdr.op, LockOp::kCancel);
      }
    }
    EXPECT_FALSE(catcher->received().empty());  // Both homes are used.
  }
  EXPECT_EQ(seen, 2 * kLocks);
}

TEST_F(ClientTest, RejectBacksOffAndRetries) {
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 8));
  ASSERT_TRUE(switch_->InstallLock(2, server_->node(), 8));
  // One token per 100 us, burst 1: back-to-back requests exceed the quota.
  switch_->quota().Configure(/*tenant=*/0, /*rate=*/1e4, /*burst=*/1);
  auto session = MakeSession();
  int granted = 0;
  session->Acquire(1, LockMode::kExclusive, 1, 0,
                   [&](AcquireResult r) { granted += r == AcquireResult::kGranted; });
  // Second acquire in the same burst window: rejected, backs off, then the
  // bucket refills and the retransmit succeeds.
  session->Acquire(2, LockMode::kExclusive, 2, 0,
                   [&](AcquireResult r) { granted += r == AcquireResult::kGranted; });
  sim_.RunUntil(10 * kMillisecond);
  EXPECT_EQ(granted, 2);
  EXPECT_GE(switch_->stats().rejected_quota, 1u);
}

TEST_F(ClientTest, MachineTxRateCapsThroughput) {
  ClientMachine slow(net_, /*tx_service=*/1000);  // 1 Mpps NIC.
  for (int i = 0; i < 100; ++i) {
    Packet pkt;
    pkt.src = 0;
    pkt.dst = server_->node();
    LockHeader hdr;
    hdr.SerializeTo(pkt);
    slow.Send(pkt);
  }
  sim_.RunUntil(50 * kMicrosecond);
  // Only ~50 packets could leave the NIC in 50 us.
  EXPECT_LE(server_->received().size(), 51u);
  EXPECT_GE(server_->received().size(), 48u);
}

// A client NIC sends one packet every tx_service_time, FIFO. The wait in
// the NIC is folded into the delivery, so a burst of three packets costs
// three events (one delivery each), not six.
class MachineNicTest : public ::testing::Test {
 protected:
  MachineNicTest()
      : net_(sim_, /*latency=*/kMicrosecond),
        receiver_(net_.AddNode(
            [this](const Packet&) { arrivals_.push_back(sim_.now()); })),
        sender_(net_.AddNode(nullptr)),
        machine_(net_, /*tx_service=*/55) {}

  void SendBurst(int n) {
    for (int i = 0; i < n; ++i) {
      Packet pkt;
      pkt.src = sender_;
      pkt.dst = receiver_;
      LockHeader hdr;
      hdr.op = LockOp::kAcquire;
      hdr.lock_id = 7;
      hdr.txn_id = static_cast<TxnId>(i + 1);
      hdr.SerializeTo(pkt);
      machine_.Send(pkt);
    }
  }

  SimContext context_;
  Simulator sim_{&context_};
  Network net_;
  NodeId receiver_;
  NodeId sender_;
  ClientMachine machine_;
  std::vector<SimTime> arrivals_;
};

TEST_F(MachineNicTest, QueuedPacketsDepartEveryServiceTime) {
  SendBurst(3);
  sim_.Run();
  EXPECT_EQ(arrivals_, (std::vector<SimTime>{1055, 1110, 1165}));
  EXPECT_EQ(sim_.events_processed(), 3u);
  EXPECT_EQ(net_.packets_sent(), 3u);
}

// Faults judge a queued packet when it departs, not when it is handed to
// the NIC: with loss 1.0 cleared at t = 100 ns, only the packet that left
// at 55 ns is lost.
TEST_F(MachineNicTest, FaultsApplyAtDepartureTime) {
  net_.SetLossProbability(1.0);
  SendBurst(3);
  sim_.ScheduleAt(100, [this]() { net_.ClearFaults(); });
  sim_.Run();
  EXPECT_EQ(arrivals_, (std::vector<SimTime>{1110, 1165}));
  EXPECT_EQ(net_.packets_dropped(), 1u);
}

TEST_F(MachineNicTest, WireSpanStartsAtDeparture) {
  context_.trace().Enable();
  SendBurst(3);
  sim_.Run();
  std::vector<SimTime> starts;
  for (const TraceEvent& ev : context_.trace().events()) {
    if (std::string_view(ev.name) != "wire.acquire") continue;
    starts.push_back(ev.ts);
    EXPECT_EQ(ev.dur, kMicrosecond);
  }
  EXPECT_EQ(starts, (std::vector<SimTime>{55, 110, 165}));
}

// Retry timers are lazy (one armed event per session), yet each pending
// acquire still retransmits exactly retry_timeout after its previous send
// and times out after max_retries retransmissions. Two acquires staggered
// by a third of the timeout interleave their deadlines; a third, cancelled
// acquire leaves a dead deadline at the front that must not delay them.
TEST_F(ClientTest, LazyRetryTimersFireAtExactDeadlines) {
  constexpr SimTime kTimeout = 300 * kMicrosecond;
  constexpr int kMaxRetries = 3;
  std::map<TxnId, std::vector<SimTime>> sends;
  const NodeId silent = net_.AddNode([&](const Packet& pkt) {
    const auto hdr = LockHeader::Parse(pkt);
    if (hdr && hdr->op == LockOp::kAcquire) {
      sends[hdr->txn_id].push_back(sim_.now());
    }
  });
  NetLockSession::Config config;
  config.switch_node = silent;  // The switch is unreachable.
  config.retry_timeout = kTimeout;
  config.max_retries = kMaxRetries;
  NetLockSession session(*machine_, config);
  std::map<TxnId, std::pair<AcquireResult, SimTime>> results;
  auto acquire_at = [&](SimTime when, LockId lock, TxnId txn) {
    sim_.ScheduleAt(when, [&, lock, txn]() {
      session.Acquire(lock, LockMode::kExclusive, txn, 0,
                      [&, txn](AcquireResult r) {
                        results[txn] = {r, sim_.now()};
                      });
    });
  };
  acquire_at(0, 1, 10);
  acquire_at(10 * kMicrosecond, 2, 20);
  acquire_at(kTimeout / 3, 3, 30);
  sim_.ScheduleAt(50 * kMicrosecond, [&]() {
    session.Cancel(1, LockMode::kExclusive, 10);
  });
  sim_.RunUntil(10 * kTimeout);

  ASSERT_EQ(sends[10].size(), 1u);  // Cancelled before its deadline.
  EXPECT_EQ(results.count(10), 0u);
  for (const auto& [txn, issued_at] :
       {std::pair<TxnId, SimTime>{20, 10 * kMicrosecond},
        std::pair<TxnId, SimTime>{30, kTimeout / 3}}) {
    const std::vector<SimTime>& times = sends[txn];
    ASSERT_EQ(times.size(), static_cast<std::size_t>(kMaxRetries + 1)) << txn;
    // Same one-way delay for every send: the NIC is idle at each deadline.
    const SimTime wire = times[0] - issued_at;
    for (int k = 0; k <= kMaxRetries; ++k) {
      EXPECT_EQ(times[k], issued_at + k * kTimeout + wire) << txn << " " << k;
    }
    ASSERT_EQ(results.count(txn), 1u) << txn;
    EXPECT_EQ(results[txn].first, AcquireResult::kTimeout);
    EXPECT_EQ(results[txn].second, issued_at + (kMaxRetries + 1) * kTimeout);
  }
  EXPECT_EQ(session.retransmits(), 2u * kMaxRetries);
}

// A 480-session rack (sim-switch's shape on fewer locks) keeps the event
// heap at a few events per session: one armed retry timer each plus the
// packets in flight, not one timer per acquire of the last retry window.
TEST(RetryTimerDepthTest, HeapDepthScalesWithSessionsNotAcquires) {
  MicroConfig micro;
  micro.num_locks = 10'000;
  micro.shared_fraction = 0.0;
  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 10;
  config.sessions_per_machine = 48;
  config.lock_servers = 1;
  config.txn_config.think_time = 0;
  config.switch_config.queue_capacity = 2 * micro.num_locks + 4096;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.netlock().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  testbed.SetRecording(true);
  testbed.StartEngines();
  // Past one retry timeout, so every session's armed timer has fired and
  // re-armed at least once.
  testbed.sim().RunUntil(config.client_retry_timeout + kMillisecond);
  std::uint64_t commits = 0;
  for (int i = 0; i < testbed.num_engines(); ++i) {
    commits += testbed.engine(i).metrics().txn_commits;
  }
  const std::size_t sessions = 480;
  EXPECT_GT(commits, 20 * sessions);  // Many acquires per session.
  EXPECT_LE(testbed.sim().max_pending_events(), 4 * sessions);
}

class TxnEngineTest : public ClientTest {};

TEST_F(TxnEngineTest, ClosedLoopCommitsTransactions) {
  for (LockId lock = 0; lock < 4; ++lock) {
    ASSERT_TRUE(switch_->InstallLock(lock, server_->node(), 16));
  }
  auto session = MakeSession();
  MicroConfig wconfig;
  wconfig.num_locks = 4;
  wconfig.locks_per_txn = 2;
  TxnEngineConfig config;
  config.think_time = 5 * kMicrosecond;
  TxnEngine engine(sim_, *session,
                   std::make_unique<MicroWorkload>(wconfig), 1, 99, config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(10 * kMillisecond);
  engine.Stop();
  sim_.RunUntil(sim_.now() + kMillisecond);
  EXPECT_TRUE(engine.idle());
  const RunMetrics& m = engine.metrics();
  EXPECT_GT(m.txn_commits, 100u);
  EXPECT_EQ(m.lock_grants, m.lock_requests);
  // Each txn: ~2 lock acquires, each ~2 us RTT, plus 5 us think.
  EXPECT_GT(m.txn_latency.Median(), 5 * kMicrosecond);
}

TEST_F(TxnEngineTest, ThinkTimeBoundsThroughput) {
  ASSERT_TRUE(switch_->InstallLock(0, server_->node(), 16));
  auto session = MakeSession();
  MicroConfig wconfig;
  wconfig.num_locks = 1;
  TxnEngineConfig config;
  config.think_time = 100 * kMicrosecond;
  TxnEngine engine(sim_, *session,
                   std::make_unique<MicroWorkload>(wconfig), 1, 7, config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(100 * kMillisecond);
  // <= 1000 txns in 100 ms at >= 100 us each.
  EXPECT_LE(engine.metrics().txn_commits, 1000u);
  EXPECT_GE(engine.metrics().txn_commits, 800u);
}

TEST_F(TxnEngineTest, RecordingWindowExcludesWarmup) {
  ASSERT_TRUE(switch_->InstallLock(0, server_->node(), 16));
  auto session = MakeSession();
  MicroConfig wconfig;
  wconfig.num_locks = 1;
  TxnEngine engine(sim_, *session,
                   std::make_unique<MicroWorkload>(wconfig), 1, 8,
                   TxnEngineConfig{});
  engine.Start();
  sim_.RunUntil(kMillisecond);
  EXPECT_EQ(engine.metrics().txn_commits, 0u);  // Not recording yet.
  engine.SetRecording(true);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_GT(engine.metrics().txn_commits, 0u);
}

TEST_F(TxnEngineTest, StopAndRestart) {
  ASSERT_TRUE(switch_->InstallLock(0, server_->node(), 16));
  auto session = MakeSession();
  MicroConfig wconfig;
  wconfig.num_locks = 1;
  TxnEngine engine(sim_, *session,
                   std::make_unique<MicroWorkload>(wconfig), 1, 9,
                   TxnEngineConfig{});
  engine.Start();
  sim_.RunUntil(kMillisecond);
  engine.Stop();
  sim_.RunUntil(sim_.now() + kMillisecond);
  ASSERT_TRUE(engine.idle());
  engine.SetRecording(true);
  engine.Restart();
  sim_.RunUntil(sim_.now() + kMillisecond);
  EXPECT_GT(engine.metrics().txn_commits, 0u);
}

TEST_F(TxnEngineTest, AbortReleasesAndRetries) {
  // Lock 0 routed nowhere: acquire times out, engine aborts and retries.
  ASSERT_TRUE(switch_->InstallLock(1, server_->node(), 16));
  auto session = MakeSession(/*retry_timeout=*/50 * kMicrosecond);
  MicroConfig wconfig;
  wconfig.num_locks = 2;  // Locks 0 (dead) and 1 (alive).
  wconfig.locks_per_txn = 2;
  TxnEngineConfig config;
  config.abort_backoff = 10 * kMicrosecond;
  TxnEngine engine(sim_, *session,
                   std::make_unique<MicroWorkload>(wconfig), 1, 10, config);
  engine.SetRecording(true);
  engine.Start();
  sim_.RunUntil(50 * kMillisecond);
  EXPECT_GT(engine.aborts(), 0u);
  // Lock 1 must never be left stuck: its switch queue drains on aborts.
  engine.Stop();
  sim_.RunUntil(sim_.now() + 20 * kMillisecond);
  EXPECT_TRUE(switch_->QueueEmpty(1));
}

}  // namespace
}  // namespace netlock
