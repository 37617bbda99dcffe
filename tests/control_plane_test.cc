// Tests for the control plane: allocation install, lock migration in both
// directions (pause -> drain -> move), demand harvesting, dynamic
// reallocation, lease polling, and switch-failure recovery.
#include <gtest/gtest.h>

#include "core/control_plane.h"
#include "core/memory_alloc.h"
#include "test_util.h"

namespace netlock {
namespace {

using testing::MakeAcquire;
using testing::MakeRelease;
using testing::PacketCatcher;

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest() : net_(sim_, /*latency=*/1000) {
    LockSwitchConfig sw;
    sw.queue_capacity = 128;
    sw.array_size = 64;
    sw.max_locks = 16;
    switch_ = std::make_unique<LockSwitch>(net_, sw);
    server_ = std::make_unique<LockServer>(net_, LockServerConfig{});
    control_ = std::make_unique<ControlPlane>(
        sim_, *switch_, std::vector<LockServer*>{server_.get()},
        ControlPlaneConfig{});
    client_ = std::make_unique<PacketCatcher>(net_);
  }

  // Bounded settle instead of Run(): the lease poller self-reschedules
  // forever, so draining the event queue would never terminate.
  void Settle() { sim_.RunUntil(sim_.now() + 500 * kMicrosecond); }

  void Acquire(LockId lock, TxnId txn) {
    net_.Send(MakeLockPacket(client_->node(), switch_->node(),
                             MakeAcquire(lock, LockMode::kExclusive, txn,
                                         client_->node())));
    Settle();
  }

  void Release(LockId lock, TxnId txn) {
    net_.Send(MakeLockPacket(client_->node(), switch_->node(),
                             MakeRelease(lock, LockMode::kExclusive, txn,
                                         client_->node())));
    Settle();
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockSwitch> switch_;
  std::unique_ptr<LockServer> server_;
  std::unique_ptr<ControlPlane> control_;
  std::unique_ptr<PacketCatcher> client_;
};

TEST_F(ControlPlaneTest, InstallAllocationPlacesLocks) {
  Allocation alloc;
  alloc.switch_slots = {{1, 8}, {2, 4}};
  alloc.server_only = {3};
  control_->InstallAllocation(alloc);
  EXPECT_TRUE(switch_->IsInstalled(1));
  EXPECT_TRUE(switch_->IsInstalled(2));
  EXPECT_FALSE(switch_->IsInstalled(3));
  // Server-only locks route via the default hash.
  Acquire(3, 100);
  EXPECT_TRUE(client_->HasGrantFor(100));
  EXPECT_EQ(server_->stats().grants, 1u);
}

TEST_F(ControlPlaneTest, MoveLockToServerDrainsFirst) {
  Allocation alloc;
  alloc.switch_slots = {{1, 8}};
  control_->InstallAllocation(alloc);
  Acquire(1, 1);  // Holder in the switch queue.
  bool moved = false;
  control_->MoveLockToServer(1, [&]() { moved = true; });
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  EXPECT_FALSE(moved);  // Still held: not drained.
  // New requests during migration are buffered at the server, not lost.
  Acquire(1, 2);
  EXPECT_FALSE(client_->HasGrantFor(2));
  Release(1, 1);
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  EXPECT_TRUE(moved);
  EXPECT_FALSE(switch_->IsInstalled(1));
  // The buffered request is now served by the server as owner.
  sim_.RunUntil(sim_.now() + kMillisecond);
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(ControlPlaneTest, MoveLockToSwitchDrainsServerFirst) {
  // Lock 1 starts server-owned.
  Acquire(1, 1);
  EXPECT_TRUE(client_->HasGrantFor(1));
  bool moved = false;
  control_->MoveLockToSwitch(1, /*slots=*/8, [&](bool) { moved = true; });
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  EXPECT_FALSE(moved);  // Holder still active on the server.
  Release(1, 1);
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  EXPECT_TRUE(moved);
  EXPECT_TRUE(switch_->IsInstalled(1));
  // Subsequent requests are handled by the switch directly.
  const std::uint64_t server_grants = server_->stats().grants;
  Acquire(1, 2);
  EXPECT_TRUE(client_->HasGrantFor(2));
  EXPECT_EQ(server_->stats().grants, server_grants);
  Release(1, 2);
}

TEST_F(ControlPlaneTest, MoveToSwitchPreservesBufferedOrder) {
  Acquire(1, 1);
  bool moved = false;
  control_->MoveLockToSwitch(1, 8, [&](bool) { moved = true; });
  sim_.RunUntil(sim_.now() + kMillisecond);
  // Requests arriving mid-migration buffer at the server.
  Acquire(1, 2);
  Acquire(1, 3);
  Release(1, 1);
  sim_.RunUntil(sim_.now() + 5 * kMillisecond);
  ASSERT_TRUE(moved);
  // Buffered requests re-entered through the switch in order: txn 2 holds,
  // txn 3 waits.
  EXPECT_TRUE(client_->HasGrantFor(2));
  EXPECT_FALSE(client_->HasGrantFor(3));
  Release(1, 2);
  EXPECT_TRUE(client_->HasGrantFor(3));
}

TEST_F(ControlPlaneTest, HarvestDemandsMergesSwitchAndServers) {
  Allocation alloc;
  alloc.switch_slots = {{1, 8}};
  control_->InstallAllocation(alloc);
  sim_.RunUntil(kSecond);  // A 1-second window for clean rates.
  Acquire(1, 1);
  Release(1, 1);
  Acquire(2, 2);  // Server-owned via default route.
  Release(2, 2);
  const std::vector<LockDemand> demands = control_->HarvestDemands();
  ASSERT_EQ(demands.size(), 2u);
  bool saw1 = false, saw2 = false;
  for (const LockDemand& d : demands) {
    if (d.lock == 1) saw1 = true;
    if (d.lock == 2) saw2 = true;
    EXPECT_GT(d.rate, 0.0);
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
}

TEST_F(ControlPlaneTest, ReallocateMovesHotLockIn) {
  // Generate demand on lock 5 at the server, then reallocate: the knapsack
  // should bring it into the switch.
  sim_.RunUntil(kSecond);
  for (TxnId txn = 0; txn < 20; ++txn) {
    Acquire(5, txn);
    Release(5, txn);
  }
  bool done = false;
  control_->Reallocate(/*switch_capacity=*/64, [&]() { done = true; });
  sim_.RunUntil(sim_.now() + 20 * kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_TRUE(switch_->IsInstalled(5));
}

TEST_F(ControlPlaneTest, LeasePollingClearsExpired) {
  Allocation alloc;
  alloc.switch_slots = {{1, 8}};
  control_->InstallAllocation(alloc);
  control_->StartLeasePolling();
  Acquire(1, 1);  // Holder that never releases (failed client).
  Acquire(1, 2);  // Blocked.
  EXPECT_FALSE(client_->HasGrantFor(2));
  sim_.RunUntil(sim_.now() + 100 * kMillisecond);  // > default 50 ms lease.
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(ControlPlaneTest, RecoverSwitchReinstallsAllocation) {
  Allocation alloc;
  alloc.switch_slots = {{1, 8}, {2, 8}};
  control_->InstallAllocation(alloc);
  Acquire(1, 1);  // Pre-crash grant: its lease outlives the switch.
  EXPECT_TRUE(client_->HasGrantFor(1));
  control_->FailSwitch();
  control_->RecoverSwitch();
  EXPECT_TRUE(switch_->IsInstalled(1));
  EXPECT_TRUE(switch_->IsInstalled(2));
  // One-lease grace (§4.5): txn 1's pre-crash grant is still live (its
  // release died with the switch), so the restarted switch queues new
  // requests but must not regrant until the old leases have expired.
  Acquire(1, 2);
  EXPECT_FALSE(client_->HasGrantFor(2));
  sim_.RunUntil(sim_.now() + 60 * kMillisecond);  // > default 50 ms lease.
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// Regression: InstallAllocation recorded every lock of the allocation as
// switch-resident, including those the full switch table refused. Those
// locks are served by their home server, yet RecoverSwitch evicted the
// server's state for them (dropping a live holder) before failing to
// reinstall them — and the next acquire was granted to a second holder.
TEST_F(ControlPlaneTest, RecoverSwitchKeepsLocksTheSwitchRefused) {
  Allocation alloc;
  for (LockId lock = 1; lock <= 20; ++lock) {
    alloc.switch_slots.emplace_back(lock, 4);  // max_locks is 16.
  }
  control_->InstallAllocation(alloc);
  ASSERT_EQ(switch_->table().num_installed(), 16u);
  EXPECT_EQ(control_->installed().switch_slots.size(), 16u);
  EXPECT_EQ(control_->installed().server_only,
            (std::vector<LockId>{17, 18, 19, 20}));
  Acquire(17, 1);  // Served by the home server.
  ASSERT_TRUE(client_->HasGrantFor(1));
  control_->FailSwitch();
  control_->RecoverSwitch();
  EXPECT_EQ(switch_->table().num_installed(), 16u);
  EXPECT_FALSE(switch_->IsInstalled(17));
  Acquire(17, 2);
  EXPECT_FALSE(client_->HasGrantFor(2));  // Txn 1 still holds lock 17.
  Release(17, 1);
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// Regression (fuzz find): an acquire the switch forwarded to the home
// server before MoveLockToSwitch landed (in flight, or queued at a server
// core) reached the server after DropOwnership. The server took it as
// owned, re-created the lock's ownership, and granted it beside the
// switch's holder. It must reach the switch's queue instead.
TEST_F(ControlPlaneTest, LateServerAcquireAfterMoveToSwitchQueuesAtSwitch) {
  Allocation alloc;
  alloc.server_only = {1};
  control_->InstallAllocation(alloc);
  Acquire(1, 1);  // Server-owned: the home server grants it.
  ASSERT_TRUE(client_->HasGrantFor(1));
  Release(1, 1);
  bool installed = false;
  control_->MoveLockToSwitch(1, 8, [&](bool ok) { installed = ok; });
  sim_.RunUntil(sim_.now() + kMillisecond);
  ASSERT_TRUE(installed);
  Acquire(1, 2);  // The switch grants txn 2.
  ASSERT_TRUE(client_->HasGrantFor(2));
  // A late copy of an acquire the switch forwarded before the move.
  LockHeader late = MakeAcquire(1, LockMode::kExclusive, 3, client_->node());
  late.flags = kFlagServerOwned;
  net_.Send(MakeLockPacket(switch_->node(), server_->node(), late));
  Settle();
  EXPECT_FALSE(client_->HasGrantFor(3));  // Granted pre-fix: overlap.
  Release(1, 2);
  EXPECT_TRUE(client_->HasGrantFor(3));  // Queued at the switch.
  EXPECT_EQ(server_->stats().grants, 1u);
}

// Regression (fuzz find): a migration out of a restarted switch found the
// wiped queue empty and handed the lock to its server at once, inside the
// lease of a grant the switch issued before it crashed.
TEST_F(ControlPlaneTest, MoveLockToServerAfterRestartWaitsOutCrashLeases) {
  Allocation alloc;
  alloc.switch_slots = {{1, 8}};
  control_->InstallAllocation(alloc);
  Acquire(1, 1);  // Pre-crash grant; its release dies with the switch.
  ASSERT_TRUE(client_->HasGrantFor(1));
  const SimTime crash = sim_.now();
  control_->FailSwitch();
  sim_.RunUntil(crash + 10 * kMillisecond);
  control_->RecoverSwitch();
  bool moved = false;
  control_->MoveLockToServer(1, [&]() { moved = true; });
  Acquire(1, 2);  // Buffered at the server while the switch is paused.
  const SimTime grace = crash + control_->config().lease;
  EXPECT_EQ(control_->grace_until(), grace);
  sim_.RunUntil(grace - kMillisecond);
  EXPECT_FALSE(moved);
  EXPECT_FALSE(client_->HasGrantFor(2));  // Granted pre-fix at ~10 ms.
  sim_.RunUntil(grace + kMillisecond);
  EXPECT_TRUE(moved);
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// §4.5's grace runs from the crash: a switch restarted more than a lease
// after it failed has no live pre-crash grant left and serves at once.
TEST_F(ControlPlaneTest, RestartAfterOneLeaseGrantsAtOnce) {
  Allocation alloc;
  alloc.switch_slots = {{1, 8}};
  control_->InstallAllocation(alloc);
  Acquire(1, 1);
  ASSERT_TRUE(client_->HasGrantFor(1));
  control_->FailSwitch();
  sim_.RunUntil(sim_.now() + control_->config().lease + kMillisecond);
  bool recovered = false;
  control_->RecoverSwitch([&]() { recovered = true; });
  Acquire(1, 2);
  EXPECT_TRUE(recovered);
  EXPECT_TRUE(client_->HasGrantFor(2));  // Pre-fix: one more lease.
}

// A rack with two lock servers and a lock homed on the second, which the
// tests crash: its locks re-hash onto the first (the substitute).
class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest()
      : net_(sim_, /*latency=*/1000),
        switch_(net_, SwitchConfig()),
        substitute_(net_, LockServerConfig{}),
        home_(net_, LockServerConfig{}),
        control_(sim_, switch_, {&substitute_, &home_}, ControlPlaneConfig{}),
        client_(net_) {
    while (control_.ServerFor(lock_) != home_.node()) ++lock_;
  }

  static LockSwitchConfig SwitchConfig() {
    LockSwitchConfig sw;
    sw.queue_capacity = 128;
    sw.array_size = 64;
    sw.max_locks = 16;
    return sw;
  }

  void Acquire(TxnId txn) {
    net_.Send(MakeLockPacket(client_.node(), switch_.node(),
                             MakeAcquire(lock_, LockMode::kExclusive, txn,
                                         client_.node())));
    sim_.RunUntil(sim_.now() + kMillisecond);
  }

  Simulator sim_;
  Network net_;
  LockSwitch switch_;
  LockServer substitute_;
  LockServer home_;
  ControlPlane control_;
  PacketCatcher client_;
  LockId lock_ = 0;
};

// Regression (fuzz find): when a failed server recovered, the substitute
// that had served its locks dropped their state, but an acquire already in
// flight to it (or queued at one of its cores) re-created ownership there
// and was granted while the substitute's last holder still held the lock.
TEST_F(ServerRecoveryTest, LateAcquireAtSubstituteGoesToTheRecoveredServer) {
  control_.FailServer(1);
  sim_.RunUntil(sim_.now() + 60 * kMillisecond);  // Past the takeover grace.
  Acquire(1);
  ASSERT_TRUE(client_.HasGrantFor(1));  // Granted by the substitute.
  control_.RecoverServer(1);
  LockHeader late =
      MakeAcquire(lock_, LockMode::kExclusive, 2, client_.node());
  late.flags = kFlagServerOwned;
  net_.Send(MakeLockPacket(switch_.node(), substitute_.node(), late));
  sim_.RunUntil(sim_.now() + kMillisecond);
  EXPECT_FALSE(client_.HasGrantFor(2));  // Granted pre-fix: overlap.
  EXPECT_EQ(substitute_.stats().grants, 1u);
  // The recovered home server queues it and grants after its grace.
  sim_.RunUntil(sim_.now() + 60 * kMillisecond);
  EXPECT_TRUE(client_.HasGrantFor(2));
  EXPECT_EQ(home_.stats().grants, 1u);
}

// Regression (fuzz find): a lock whose server had just crashed moved to the
// switch at once, and the switch granted it inside the lease of a grant the
// crashed server had issued. The move waits out the takeover grace.
TEST_F(ServerRecoveryTest, MoveToSwitchWaitsOutTheTakeoverGrace) {
  Acquire(1);
  ASSERT_TRUE(client_.HasGrantFor(1));  // Granted by the home server.
  control_.FailServer(1);
  const SimTime grace = sim_.now() + control_.config().lease;
  bool installed = false;
  control_.MoveLockToSwitch(lock_, 8, [&](bool ok) { installed = ok; });
  Acquire(2);
  sim_.RunUntil(grace - kMillisecond);
  EXPECT_FALSE(client_.HasGrantFor(2));  // Granted pre-fix at ~1 ms.
  sim_.RunUntil(grace + kMillisecond);
  EXPECT_TRUE(installed);
  EXPECT_TRUE(client_.HasGrantFor(2));
}

TEST(ReallocateSequencingTest, AdditionsWaitForRemovalDrains) {
  // Regression: Reallocate launched MoveLockToSwitch additions concurrently
  // with removals. With the queue fully occupied by the outgoing lock, the
  // incoming lock's InstallLock failed and it was stranded server-side even
  // though the removal freed the space moments later.
  Simulator sim;
  Network net(sim, /*latency=*/1000);
  LockSwitchConfig sw;
  sw.queue_capacity = 8;  // Exactly the outgoing lock's region.
  sw.array_size = 64;
  sw.max_locks = 16;
  LockSwitch lock_switch(net, sw);
  LockServer server(net, LockServerConfig{});
  ControlPlane control(sim, lock_switch,
                       std::vector<LockServer*>{&server});
  PacketCatcher client(net);

  auto settle = [&]() { sim.RunUntil(sim.now() + 500 * kMicrosecond); };
  auto acquire = [&](LockId lock, TxnId txn) {
    net.Send(MakeLockPacket(client.node(), lock_switch.node(),
                            MakeAcquire(lock, LockMode::kExclusive, txn,
                                        client.node())));
    settle();
  };
  auto release = [&](LockId lock, TxnId txn) {
    net.Send(MakeLockPacket(client.node(), lock_switch.node(),
                            MakeRelease(lock, LockMode::kExclusive, txn,
                                        client.node())));
    settle();
  };

  constexpr LockId kOut = 1, kIn = 2;
  Allocation alloc;
  alloc.switch_slots = {{kOut, 8}};  // Occupies the whole shared queue.
  control.InstallAllocation(alloc);
  sim.RunUntil(kSecond);
  acquire(kOut, 999);  // Long-lived holder: the removal drain must wait.
  ASSERT_TRUE(client.HasGrantFor(999));
  control.HarvestDemands();  // Reset: kOut has no demand in the new window.
  // Build demand for kIn (served server-side via the default route), fully
  // released so its server queue drains on the first migration poll.
  for (TxnId txn = 0; txn < 20; ++txn) {
    acquire(kIn, txn);
    release(kIn, txn);
  }
  bool done = false;
  control.Reallocate(/*switch_capacity=*/8, [&]() { done = true; });
  // The incoming lock's server queue is empty immediately, but the outgoing
  // lock is still held: the addition must not have been attempted yet.
  sim.RunUntil(sim.now() + 5 * kMillisecond);
  EXPECT_FALSE(done);
  release(kOut, 999);  // Now the removal drain completes.
  sim.RunUntil(sim.now() + 20 * kMillisecond);
  EXPECT_TRUE(done);
  // The point of the fix: the incoming lock made it into the freed space
  // instead of being stranded on the server. (The outgoing lock shrinks to
  // one slot — zero rate, contention 1 — rather than leaving entirely.)
  EXPECT_TRUE(lock_switch.IsInstalled(kIn));
}

TEST_F(ControlPlaneTest, ReallocateResizesLockWhoseContentionGrew) {
  // Regression: Reallocate only computed to_add for locks not yet
  // installed, so an installed lock whose target slot count changed kept
  // its old queue size forever.
  Allocation alloc;
  alloc.switch_slots = {{7, 2}};  // Installed small.
  control_->InstallAllocation(alloc);
  sim_.RunUntil(kSecond);
  // The two-slot region itself can never see a queue deeper than 2, so the
  // grown target comes straight from the controller's side.
  Acquire(7, 1);
  Release(7, 1);
  Allocation grown;
  grown.switch_slots = {{7, 5}};
  bool done = false;
  control_->ApplyAllocation(grown, [&]() { done = true; });
  sim_.RunUntil(sim_.now() + 20 * kMillisecond);
  EXPECT_TRUE(done);
  ASSERT_TRUE(switch_->IsInstalled(7));
  const SwitchLockEntry* entry = switch_->table().Find(7);
  ASSERT_NE(entry, nullptr);
  std::uint32_t slots = 0;
  for (const LockBounds& region : entry->regions) {
    slots += region.right - region.left;
  }
  EXPECT_EQ(slots, 5u);
}

TEST_F(ControlPlaneTest, ReallocateShrinksOversizedLock) {
  // The resize path works in both directions: a lock whose contention
  // collapsed gives queue space back.
  Allocation alloc;
  alloc.switch_slots = {{9, 16}};
  control_->InstallAllocation(alloc);
  sim_.RunUntil(kSecond);
  Acquire(9, 1);  // Serial demand: contention 1.
  Release(9, 1);
  const std::uint32_t free_before = switch_->table().free_slots();
  bool done = false;
  control_->Reallocate(/*switch_capacity=*/64, [&]() { done = true; });
  sim_.RunUntil(sim_.now() + 20 * kMillisecond);
  EXPECT_TRUE(done);
  ASSERT_TRUE(switch_->IsInstalled(9));
  const SwitchLockEntry* entry = switch_->table().Find(9);
  ASSERT_NE(entry, nullptr);
  std::uint32_t slots = 0;
  for (const LockBounds& region : entry->regions) {
    slots += region.right - region.left;
  }
  EXPECT_LT(slots, 16u);
  EXPECT_GT(switch_->table().free_slots(), free_before);
}

TEST_F(ControlPlaneTest, OverlappingReallocateRejectedWhileDraining) {
  // Regression: two overlapping Reallocate calls shared no guard — the
  // second double-paused locks mid-drain and raced the first's sequencing
  // state. The busy reject must also leave the demand window untouched.
  Allocation alloc;
  alloc.switch_slots = {{1, 8}};
  control_->InstallAllocation(alloc);
  sim_.RunUntil(kSecond);
  Acquire(1, 1);  // Holder: any drain of lock 1 stalls until release.
  for (TxnId txn = 10; txn < 20; ++txn) {
    Acquire(2, txn);
    Release(2, txn);
  }
  bool first_done = false;
  EXPECT_TRUE(control_->Reallocate(/*switch_capacity=*/64,
                                   [&]() { first_done = true; }));
  sim_.RunUntil(sim_.now() + 2 * kMillisecond);
  EXPECT_FALSE(first_done);
  EXPECT_TRUE(control_->MigrationInFlight());
  bool second_done = false;
  EXPECT_FALSE(control_->Reallocate(/*switch_capacity=*/64,
                                    [&]() { second_done = true; }));
  Release(1, 1);
  sim_.RunUntil(sim_.now() + 40 * kMillisecond);
  EXPECT_TRUE(first_done);
  EXPECT_FALSE(second_done);  // Rejected call never fires its callback.
  EXPECT_FALSE(control_->MigrationInFlight());
  // Once the batch lands, new batches are accepted again.
  EXPECT_TRUE(control_->Reallocate(/*switch_capacity=*/64, nullptr));
}

TEST_F(ControlPlaneTest, RecoverSwitchMidReallocateKeepsServerOwnership) {
  // Regression: Reallocate committed `installed_ = target` before any
  // migration ran, so a switch crash + RecoverSwitch() mid-drain
  // reinstalled locks that were still (or again) server-owned and evicted
  // the server's holder state — the next acquire was granted by the switch
  // while the original holder still held the lock (split-brain).
  sim_.RunUntil(kSecond);
  Acquire(2, 1);  // Lock 2 server-owned, txn 1 holds it.
  EXPECT_TRUE(client_->HasGrantFor(1));
  bool done = false;
  EXPECT_TRUE(
      control_->Reallocate(/*switch_capacity=*/64, [&]() { done = true; }));
  sim_.RunUntil(sim_.now() + 2 * kMillisecond);
  EXPECT_FALSE(done);  // Drain stalls: txn 1 still holds lock 2.
  control_->FailSwitch();
  control_->RecoverSwitch();
  // The migration has not landed, so recovery must not put lock 2 on the
  // switch; a new request routes to the server and waits behind txn 1.
  EXPECT_FALSE(switch_->IsInstalled(2));
  Acquire(2, 2);
  EXPECT_FALSE(client_->HasGrantFor(2));  // Granted pre-fix: split-brain.
  Release(2, 1);
  sim_.RunUntil(sim_.now() + 40 * kMillisecond);
  EXPECT_TRUE(done);  // The drain completed and the migration landed.
  EXPECT_TRUE(switch_->IsInstalled(2));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

}  // namespace
}  // namespace netlock
