// Model-based checking: the switch data plane (with and without the
// q1/q2 overflow path) must produce exactly the grant sequence of a
// reference single-FIFO-queue lock manager for arbitrary operation
// sequences. This is the strongest statement of the paper's correctness
// claims: Algorithm 2 == FIFO queue semantics, and overflow preserves
// single-queue equivalence (Section 4.3).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "dataplane/switch_dataplane.h"
#include "server/lock_server.h"
#include "test_util.h"
#include "testing/reference_lock_manager.h"

namespace netlock {
namespace {

using testing::MakeAcquire;
using testing::MakeRelease;
using testing::ReferenceLockManager;

struct ModelCheckParams {
  std::uint64_t seed;
  std::uint32_t region_slots;  // Small => overflow path exercised.
  int num_locks;
  double shared_fraction;
};

class ModelCheckTest : public ::testing::TestWithParam<ModelCheckParams> {};

// With regions large enough that overflow never happens, the switch must
// produce *exactly* the reference model's grant sequence: grant timing and
// order are fully specified by Algorithm 2.
TEST_P(ModelCheckTest, SwitchMatchesReferenceGrantSequence) {
  const ModelCheckParams params = GetParam();
  if (params.region_slots < 64) {
    GTEST_SKIP() << "sequence equality applies to the no-overflow regime";
  }
  Simulator sim;
  Network net(sim, /*latency=*/1000);
  LockSwitchConfig config;
  config.queue_capacity = 4096;
  config.array_size = 512;
  config.max_locks = 64;
  LockSwitch lock_switch(net, config);
  LockServer server(net, LockServerConfig{});
  server.set_switch_node(lock_switch.node());
  const NodeId client = net.AddNode([](const Packet&) {});
  for (int l = 0; l < params.num_locks; ++l) {
    ASSERT_TRUE(lock_switch.InstallLock(l, server.node(),
                                        params.region_slots));
  }

  std::vector<ReferenceLockManager::Grant> switch_grants;
  lock_switch.set_grant_observer(
      [&](LockId lock, TxnId txn, LockMode mode, NodeId) {
        switch_grants.push_back({lock, txn, mode});
      });

  ReferenceLockManager reference;
  Rng rng(params.seed);
  TxnId next_txn = 1;

  // Granted-but-unreleased entries per the reference, as release targets.
  // Released in FIFO-per-lock order (the commutativity the paper relies on
  // lets any holder release; dequeues are blind head pops either way).
  const int kOps = 400;
  for (int op = 0; op < kOps; ++op) {
    const auto held = reference.GrantedNow();
    const bool do_release = !held.empty() && rng.NextBool(0.5);
    if (do_release) {
      const auto& target = held[rng.NextBounded(held.size())];
      ASSERT_TRUE(reference.Release(target.lock, target.mode));
      net.Send(MakeLockPacket(client, lock_switch.node(),
                              MakeRelease(target.lock, target.mode,
                                          target.txn, client)));
    } else {
      const LockId lock =
          static_cast<LockId>(rng.NextBounded(params.num_locks));
      const LockMode mode = rng.NextBool(params.shared_fraction)
                                ? LockMode::kShared
                                : LockMode::kExclusive;
      const TxnId txn = next_txn++;
      reference.Acquire(lock, mode, txn);
      net.Send(MakeLockPacket(client, lock_switch.node(),
                              MakeAcquire(lock, mode, txn, client)));
    }
    // Quiesce so overflow pushes and grant cascades settle between ops.
    sim.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Exact grant-sequence equality, including order.
  ASSERT_EQ(switch_grants.size(), reference.grants().size())
      << "seed=" << params.seed << " region=" << params.region_slots;
  for (std::size_t i = 0; i < switch_grants.size(); ++i) {
    EXPECT_EQ(switch_grants[i], reference.grants()[i]) << "at " << i;
  }
}

// Under overflow (tiny regions), grant *timing* may lag the reference (a
// shared request parked in q2 is granted only after q1 drains), so the
// specification is weaker: every request granted exactly once, exclusive
// grants in per-lock FIFO arrival order, and mutual exclusion throughout.
// This test drives releases from the switch's own grants (as real clients
// do) and checks those invariants.
TEST_P(ModelCheckTest, OverflowPreservesSafetyAndFifo) {
  const ModelCheckParams params = GetParam();
  Simulator sim;
  Network net(sim, /*latency=*/1000);
  LockSwitchConfig config;
  config.queue_capacity = 4096;
  config.array_size = 512;
  config.max_locks = 64;
  LockSwitch lock_switch(net, config);
  LockServer server(net, LockServerConfig{});
  server.set_switch_node(lock_switch.node());
  const NodeId client = net.AddNode([](const Packet&) {});
  for (int l = 0; l < params.num_locks; ++l) {
    ASSERT_TRUE(lock_switch.InstallLock(l, server.node(),
                                        params.region_slots));
  }

  struct GrantEv {
    LockId lock;
    TxnId txn;
    LockMode mode;
  };
  std::deque<GrantEv> held;  // Switch-granted, not yet released.
  std::map<LockId, TxnId> last_exclusive_txn;
  std::map<LockId, std::pair<int, int>> holders;  // lock -> (shared, excl).
  std::map<LockId, std::deque<TxnId>> expected_x_order;
  std::uint64_t grants_seen = 0;
  lock_switch.set_grant_observer(
      [&](LockId lock, TxnId txn, LockMode mode, NodeId) {
        ++grants_seen;
        auto& h = holders[lock];
        if (mode == LockMode::kExclusive) {
          EXPECT_EQ(h.first, 0) << "X granted while shared held";
          EXPECT_EQ(h.second, 0) << "X granted while X held";
          ++h.second;
          // FIFO: exclusive grants in arrival order per lock.
          ASSERT_FALSE(expected_x_order[lock].empty());
          EXPECT_EQ(expected_x_order[lock].front(), txn)
              << "exclusive FIFO violated on lock " << lock;
          expected_x_order[lock].pop_front();
        } else {
          EXPECT_EQ(h.second, 0) << "S granted while X held";
          ++h.first;
        }
        held.push_back({lock, txn, mode});
      });

  Rng rng(params.seed * 977 + 3);
  TxnId next_txn = 1;
  std::uint64_t acquires = 0;
  const int kOps = 400;
  for (int op = 0; op < kOps; ++op) {
    const bool do_release = !held.empty() && rng.NextBool(0.55);
    if (do_release) {
      const std::size_t pick = rng.NextBounded(held.size());
      const GrantEv target = held[pick];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      auto& h = holders[target.lock];
      if (target.mode == LockMode::kExclusive) {
        --h.second;
      } else {
        --h.first;
      }
      net.Send(MakeLockPacket(client, lock_switch.node(),
                              MakeRelease(target.lock, target.mode,
                                          target.txn, client)));
    } else {
      const LockId lock =
          static_cast<LockId>(rng.NextBounded(params.num_locks));
      const LockMode mode = rng.NextBool(params.shared_fraction)
                                ? LockMode::kShared
                                : LockMode::kExclusive;
      const TxnId txn = next_txn++;
      ++acquires;
      if (mode == LockMode::kExclusive) {
        expected_x_order[lock].push_back(txn);
      }
      net.Send(MakeLockPacket(client, lock_switch.node(),
                              MakeAcquire(lock, mode, txn, client)));
    }
    sim.Run();
  }
  // Drain: release everything as it gets granted until all done.
  for (int round = 0; round < 4000 && grants_seen < acquires; ++round) {
    while (!held.empty()) {
      const GrantEv target = held.front();
      held.pop_front();
      auto& h = holders[target.lock];
      if (target.mode == LockMode::kExclusive) {
        --h.second;
      } else {
        --h.first;
      }
      net.Send(MakeLockPacket(client, lock_switch.node(),
                              MakeRelease(target.lock, target.mode,
                                          target.txn, client)));
      sim.Run();
    }
    sim.Run();
  }
  EXPECT_EQ(grants_seen, acquires)
      << "every request granted exactly once; seed=" << params.seed;
  for (const auto& [lock, order] : expected_x_order) {
    EXPECT_TRUE(order.empty()) << "undrained exclusives on lock " << lock;
  }
}

std::vector<ModelCheckParams> MakeParams() {
  std::vector<ModelCheckParams> params;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Large regions: pure Algorithm 2. Tiny regions: overflow protocol.
    params.push_back({seed, 64, 3, 0.5});
    params.push_back({seed + 100, 2, 3, 0.5});
    params.push_back({seed + 200, 1, 2, 0.3});
    params.push_back({seed + 300, 3, 1, 0.7});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sequences, ModelCheckTest,
                         ::testing::ValuesIn(MakeParams()));

// Differential test against the per-class reference model (§4.4): random
// acquire / release / shared mixes over P priority classes. With regions
// too large to overflow, the switch's grant sequence must equal the
// model's exactly. With overflow-sized regions and a lock server attached,
// the model is fed what q1 actually admits — direct acquires the switch
// queued, and pushes it took back from q2 — so the sequences must still be
// equal, and every request must end up granted once the test drains.
struct DifferentialParams {
  int classes;
  std::uint64_t seed;
  std::uint32_t slots_per_class;
  int num_locks;
  double shared_fraction;
};

class PriorityDifferentialTest
    : public ::testing::TestWithParam<DifferentialParams> {
 protected:
  void Run(bool attach_server_relay) {
    const DifferentialParams params = GetParam();
    Simulator sim;
    Network net(sim, /*latency=*/1000);
    LockSwitchConfig config;
    config.queue_capacity = 4096;
    config.array_size = 512;
    config.max_locks = 64;
    config.num_priorities = static_cast<std::uint8_t>(params.classes);
    LockSwitch lock_switch(net, config);
    LockServer server(net, LockServerConfig{});
    ReferenceLockManager reference(params.classes);
    // The server reaches the switch through a relay that feeds every push
    // the switch accepts into the model, as an arrival at q1.
    const NodeId relay = net.AddNode([&](const Packet& pkt) {
      const std::optional<LockHeader> hdr = LockHeader::Parse(pkt);
      const std::uint64_t accepted = lock_switch.stats().pushes_accepted;
      lock_switch.HandlePacket(pkt);
      if (hdr && hdr->op == LockOp::kPush &&
          lock_switch.stats().pushes_accepted > accepted) {
        reference.Acquire(hdr->lock_id, hdr->mode, hdr->txn_id,
                          hdr->priority);
      }
    });
    server.set_switch_node(attach_server_relay ? relay : lock_switch.node());
    const NodeId client = net.AddNode([](const Packet&) {});
    for (int l = 0; l < params.num_locks; ++l) {
      ASSERT_TRUE(lock_switch.InstallLock(
          l, server.node(), params.slots_per_class * params.classes));
    }
    std::vector<ReferenceLockManager::Grant> switch_grants;
    lock_switch.set_grant_observer(
        [&](LockId lock, TxnId txn, LockMode mode, NodeId) {
          switch_grants.push_back({lock, txn, mode});
        });

    const auto release = [&](const ReferenceLockManager::Grant& target) {
      const Priority cls = reference.ClassOfHolder(target.lock, target.txn);
      ASSERT_TRUE(reference.Release(target.lock, target.mode, cls));
      lock_switch.HandlePacket(MakeLockPacket(
          client, lock_switch.node(),
          MakeRelease(target.lock, target.mode, target.txn, client, cls)));
      sim.Run();
    };

    Rng rng(params.seed);
    TxnId next_txn = 1;
    std::uint64_t acquires = 0;
    const int kOps = 400;
    for (int op = 0; op < kOps; ++op) {
      const auto held = reference.GrantedNow();
      if (!held.empty() && rng.NextBool(0.5)) {
        release(held[rng.NextBounded(held.size())]);
      } else {
        const LockId lock =
            static_cast<LockId>(rng.NextBounded(params.num_locks));
        const LockMode mode = rng.NextBool(params.shared_fraction)
                                  ? LockMode::kShared
                                  : LockMode::kExclusive;
        const Priority cls =
            static_cast<Priority>(rng.NextBounded(params.classes));
        const TxnId txn = next_txn++;
        ++acquires;
        const std::uint64_t forwarded = lock_switch.stats().forwarded_overflow;
        lock_switch.HandlePacket(
            MakeLockPacket(client, lock_switch.node(),
                           MakeAcquire(lock, mode, txn, client, cls)));
        if (lock_switch.stats().forwarded_overflow == forwarded) {
          reference.Acquire(lock, mode, txn, cls);
        }
        sim.Run();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain: release every holder until nothing is left anywhere.
    for (int round = 0; round < 4000; ++round) {
      const auto held = reference.GrantedNow();
      if (held.empty()) break;
      release(held.front());
      if (::testing::Test::HasFatalFailure()) return;
    }

    const std::string where = "classes=" + std::to_string(params.classes) +
                              " seed=" + std::to_string(params.seed);
    if (!attach_server_relay) {
      EXPECT_EQ(lock_switch.stats().forwarded_overflow, 0u) << where;
    }
    ASSERT_EQ(switch_grants.size(), reference.grants().size()) << where;
    for (std::size_t i = 0; i < switch_grants.size(); ++i) {
      EXPECT_EQ(switch_grants[i], reference.grants()[i])
          << where << " at " << i;
    }
    EXPECT_EQ(switch_grants.size(), acquires) << where;
    for (int l = 0; l < params.num_locks; ++l) {
      EXPECT_TRUE(lock_switch.QueueEmpty(l)) << where << " lock " << l;
      EXPECT_EQ(server.OverflowDepth(l), 0u) << where << " lock " << l;
    }
  }
};

TEST_P(PriorityDifferentialTest, SwitchMatchesPerClassReference) {
  if (GetParam().slots_per_class < 48) {
    GTEST_SKIP() << "exact sequences without a relay need regions that "
                    "never overflow";
  }
  Run(/*attach_server_relay=*/false);
}

TEST_P(PriorityDifferentialTest, OverflowMatchesReferenceFedByQ1) {
  Run(/*attach_server_relay=*/true);
}

std::vector<DifferentialParams> MakeDifferentialParams() {
  std::vector<DifferentialParams> params;
  for (const int classes : {1, 2, 3}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      params.push_back({classes, seed * 31 + classes, 60, 3, 0.5});
      params.push_back({classes, seed * 37 + classes, 2, 3, 0.5});
      params.push_back({classes, seed * 41 + classes, 1, 2, 0.7});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Classes, PriorityDifferentialTest,
                         ::testing::ValuesIn(MakeDifferentialParams()));

}  // namespace
}  // namespace netlock
