#include "core/control_plane.h"

#include <algorithm>

#include "common/check.h"
#include "net/lock_wire.h"

namespace netlock {

ControlPlane::ControlPlane(Simulator& sim, LockSwitch& lock_switch,
                           std::vector<LockServer*> servers,
                           ControlPlaneConfig config)
    : sim_(sim), switch_(lock_switch), servers_(std::move(servers)),
      alive_(servers_.size(), true), config_(config) {
  NETLOCK_CHECK(!servers_.empty());
  for (LockServer* server : servers_) {
    NETLOCK_CHECK(server != nullptr);
    server->set_switch_node(switch_.node());
  }
  // The switch routes locks without an exact-match entry by the same hash
  // partitioning the clients' directory uses, so the table stays small even
  // for multi-million-row lock spaces.
  switch_.SetDefaultRoute([this](LockId lock) { return ServerFor(lock); });
}

NodeId ControlPlane::ServerFor(LockId lock) const {
  return ServerObjFor(lock).node();
}

LockServer& ControlPlane::ServerObjFor(LockId lock) const {
  const std::uint64_t h = HomeServerHash(lock);
  // Linear probing over the alive set: a failed server's locks spill onto
  // the survivors deterministically, and return home on recovery.
  const std::size_t n = servers_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t index = (h + probe) % n;
    if (alive_[index]) return *servers_[index];
  }
  NETLOCK_CHECK(false);  // All lock servers down: the rack is gone.
  return *servers_[0];
}

void ControlPlane::InstallAllocation(const Allocation& allocation) {
  // Only locks the switch actually took are recorded as switch-resident:
  // failover replicates installed_.switch_slots onto the backup, and
  // RecoverSwitch evicts their server state before reinstalling them.
  installed_.switch_slots.clear();
  installed_.switch_slots.reserve(allocation.switch_slots.size());
  installed_.server_only = allocation.server_only;
  installed_.guaranteed_rate = allocation.guaranteed_rate;
  for (const auto& [lock, slots] : allocation.switch_slots) {
    const NodeId home = ServerFor(lock);
    // The switch becomes the owner: the home server must not keep (or act
    // on) owned-lock state from before — otherwise overflow requests marked
    // buffer-only would be wrongly granted server-side (split-brain).
    ServerObjFor(lock).EvictOwnership(lock);
    if (switch_.InstallLock(lock, home, slots)) {
      installed_.switch_slots.emplace_back(lock, slots);
    } else {
      // Switch table/memory exhausted (fragmentation): serve from the
      // server instead; routing below still covers it.
      switch_.SetHomeServer(lock, home);
      installed_.server_only.push_back(lock);
    }
  }
  // Server-only locks need no per-lock entries: the default hash route
  // already sends them to their home servers.
}

void ControlPlane::RegisterServerLock(LockId lock) {
  switch_.SetHomeServer(lock, ServerFor(lock));
}

void ControlPlane::StartLeasePolling() {
  if (lease_polling_) return;
  lease_polling_ = true;
  PollLeases();
}

void ControlPlane::SetChain(ChainMode mode, LockSwitch* tail) {
  NETLOCK_CHECK(mode == ChainMode::kNone || tail != nullptr);
  chain_mode_ = mode;
  chain_tail_ = tail;
}

void ControlPlane::PollLeases() {
  sim_.Schedule(config_.lease_poll_interval, [this]() {
    switch (chain_mode_) {
      case ChainMode::kNone:
        switch_.ClearExpired(config_.lease);
        break;
      case ChainMode::kChained:
        // Forced releases replicate through the head; the tail (the
        // emitting replica) owns the overflow re-arm.
        switch_.ClearExpired(config_.lease,
                             LockSwitch::SweepScope::kForcedReleasesOnly);
        chain_tail_->ClearExpired(config_.lease,
                                  LockSwitch::SweepScope::kOverflowRearmOnly);
        break;
      case ChainMode::kTailPromoted:
        chain_tail_->ClearExpired(config_.lease);
        break;
    }
    for (LockServer* server : servers_) {
      server->ClearExpired(config_.lease);
    }
    PollLeases();
  });
}

void ControlPlane::RecordRequest(LockId lock, std::uint32_t concurrent) {
  DemandCounters& counters = counters_[lock];
  ++counters.requests;
  counters.max_concurrent = std::max(counters.max_concurrent,
                                     std::max(1u, concurrent));
}

std::vector<LockDemand> ControlPlane::MeasuredDemands() const {
  const double window_sec =
      std::max<double>(static_cast<double>(sim_.now() - window_start_),
                       1.0) /
      static_cast<double>(kSecond);
  std::vector<LockDemand> demands;
  demands.reserve(counters_.size());
  for (const auto& [lock, counters] : counters_) {
    demands.push_back(LockDemand{
        lock, static_cast<double>(counters.requests) / window_sec,
        counters.max_concurrent});
  }
  std::sort(demands.begin(), demands.end(),
            [](const LockDemand& a, const LockDemand& b) {
              return a.lock < b.lock;
            });
  return demands;
}

std::vector<LockDemand> ControlPlane::HarvestDemands() {
  const double window_sec =
      std::max<double>(static_cast<double>(sim_.now() - window_start_),
                       1.0) /
      static_cast<double>(kSecond);
  window_start_ = sim_.now();
  std::vector<LockDemand> demands;
  switch_.HarvestDemands(window_sec, demands);
  for (LockServer* server : servers_) {
    server->HarvestDemands(window_sec, demands);
  }
  return demands;
}

void ControlPlane::CommitSwitchInstall(LockId lock, std::uint32_t slots) {
  for (auto& entry : installed_.switch_slots) {
    if (entry.first == lock) {
      entry.second = slots;
      return;
    }
  }
  installed_.switch_slots.emplace_back(lock, slots);
  installed_.server_only.erase(std::remove(installed_.server_only.begin(),
                                           installed_.server_only.end(), lock),
                               installed_.server_only.end());
}

void ControlPlane::CommitSwitchRemoval(LockId lock) {
  auto& slots = installed_.switch_slots;
  const auto it = std::find_if(
      slots.begin(), slots.end(),
      [lock](const std::pair<LockId, std::uint32_t>& entry) {
        return entry.first == lock;
      });
  if (it != slots.end()) slots.erase(it);
  if (std::find(installed_.server_only.begin(), installed_.server_only.end(),
                lock) == installed_.server_only.end()) {
    installed_.server_only.push_back(lock);
  }
}

void ControlPlane::MoveLockToServer(LockId lock, std::function<void()> done) {
  NETLOCK_CHECK(switch_.IsInstalled(lock));
  // §4.3: pause enqueuing (new requests buffer in q2 at the home server),
  // wait until the switch queue drains, then hand ownership to the server.
  switch_.PauseLock(lock, true);
  PollUntil(sim_, config_.drain_poll_interval,
            [this, lock, done = std::move(done)]() {
    // A switch restart mid-drain wipes the entry (and its queue with it);
    // converge by completing the handoff rather than polling a ghost.
    if (switch_.IsInstalled(lock)) {
      if (!switch_.QueueEmpty(lock)) return false;
      switch_.RemoveLock(lock);
    }
    ServerObjFor(lock).TakeOwnership(lock);
    CommitSwitchRemoval(lock);
    if (done) done();
    return true;
  });
}

void ControlPlane::MoveLockToSwitch(LockId lock, std::uint32_t slots,
                                    std::function<void(bool)> done) {
  NETLOCK_CHECK(!switch_.IsInstalled(lock));
  LockServer& server = ServerObjFor(lock);
  // Pause the server's queue: new requests buffer server-side; existing
  // holders drain via releases.
  server.PauseLock(lock, true);
  PollUntil(sim_, config_.drain_poll_interval,
            [this, lock, slots, &server, done = std::move(done)]() {
    if (!server.QueueEmpty(lock)) return false;
    const bool installed =
        !switch_.IsInstalled(lock) &&
        switch_.InstallLock(lock, server.node(), slots);
    if (installed) {
      // Buffered requests re-enter through the switch, in order.
      server.ForwardBufferedToSwitch(lock);
      server.PauseLock(lock, false);
      server.DropOwnership(lock);
      CommitSwitchInstall(lock, slots);
    } else {
      // Could not place (fragmentation): resume serving on the server. The
      // allocation must reflect reality — the lock stays server-owned, so
      // a later RecoverSwitch() must not resurrect it on the switch.
      server.PauseLock(lock, false);
      server.TakeOwnership(lock);  // No-op on q2 but re-grants if needed.
      server.ForwardBufferedToSwitch(lock);
      CommitSwitchRemoval(lock);
    }
    if (done) done(installed);
    return true;
  });
}

std::vector<LockDemand> ControlPlane::CombinedDemands() {
  // Primary input: the data-plane counters; the software RecordRequest
  // counters cover locks observed out-of-band (e.g., by the client
  // library). A lock the data plane serves is usually counted by both
  // paths for the same requests, so the merge takes the per-lock max —
  // summing would double-count it and skew the knapsack.
  std::vector<LockDemand> demands = MeasuredDemands();
  std::unordered_map<LockId, std::size_t> index;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    index[demands[i].lock] = i;
  }
  for (const LockDemand& d : HarvestDemands()) {
    const auto it = index.find(d.lock);
    if (it == index.end()) {
      demands.push_back(d);
    } else {
      demands[it->second].rate = std::max(demands[it->second].rate, d.rate);
      demands[it->second].contention =
          std::max(demands[it->second].contention, d.contention);
    }
  }
  counters_.clear();
  window_start_ = sim_.now();
  std::sort(demands.begin(), demands.end(),
            [](const LockDemand& a, const LockDemand& b) {
              return a.lock < b.lock;
            });
  return demands;
}

bool ControlPlane::Reallocate(std::uint32_t switch_capacity,
                              std::function<void()> done) {
  // Reject before consuming the demand window: a rejected call must not
  // discard the counters the next successful call will need.
  if (migration_in_flight_) return false;
  const Allocation target =
      KnapsackAllocate(CombinedDemands(), switch_capacity);
  return ApplyAllocation(target, std::move(done));
}

bool ControlPlane::ApplyAllocation(const Allocation& target,
                                   std::function<void()> done) {
  if (migration_in_flight_) return false;

  // Compute the migration sets relative to what is installed:
  //  - to_remove: installed but no longer in the target;
  //  - resizes: installed with a different target slot count (contention
  //    grew or shrank) — drained out and reinstalled at the new size via
  //    the same remove-then-reinstall path;
  //  - to_add: in the target but not installed.
  std::unordered_map<LockId, std::uint32_t> target_slots;
  for (const auto& [lock, slots] : target.switch_slots) {
    target_slots.emplace(lock, slots);
  }
  std::vector<LockId> to_remove;
  std::vector<std::pair<LockId, std::uint32_t>> to_add;
  for (const LockId lock : switch_.table().InstalledLocks()) {
    const auto want_it = target_slots.find(lock);
    if (want_it == target_slots.end()) {
      to_remove.push_back(lock);
      continue;
    }
    const SwitchLockEntry* entry = switch_.table().Find(lock);
    std::uint32_t have = 0;
    for (const LockBounds& region : entry->regions) {
      have += region.right - region.left;
    }
    const std::uint32_t want = want_it->second;
    if (have != want) {
      to_remove.push_back(lock);
      to_add.emplace_back(lock, want);
    }
  }
  for (const auto& [lock, slots] : target.switch_slots) {
    if (!switch_.IsInstalled(lock)) to_add.emplace_back(lock, slots);
  }
  // Both sets come out of unordered_map iteration: fix the order so the
  // migration event sequence is independent of hash-table layout.
  std::sort(to_remove.begin(), to_remove.end());
  std::sort(to_add.begin(), to_add.end());
  // `installed_.switch_slots` is deliberately NOT overwritten here: each
  // entry commits as its migration lands (CommitSwitchInstall/Removal
  // inside the move primitives), so a RecoverSwitch() mid-batch reinstalls
  // exactly the locks the switch actually owned — never a lock whose
  // ownership had already been handed to (or never left) a server.
  installed_.server_only = target.server_only;
  installed_.guaranteed_rate = target.guaranteed_rate;

  if (to_remove.empty() && to_add.empty()) {
    if (done) done();
    return true;
  }
  migration_in_flight_ = true;

  // Removals first to make space, then additions — sequenced, not merely
  // ordered: an addition launched while removals are still draining sees a
  // full table, InstallLock fails, and the lock is stranded server-side
  // even though capacity frees moments later.
  struct State {
    std::vector<std::pair<LockId, std::uint32_t>> to_add;
    std::size_t removals_left = 0;
    std::size_t adds_left = 0;
    std::function<void()> done;
  };
  auto state = std::make_shared<State>();
  state->to_add = std::move(to_add);
  state->removals_left = to_remove.size();
  state->done = [this, done = std::move(done)]() {
    migration_in_flight_ = false;
    if (done) done();
  };

  auto launch_adds = [this, state]() {
    if (state->to_add.empty()) {
      state->done();
      return;
    }
    state->adds_left = state->to_add.size();
    for (const auto& [lock, slots] : state->to_add) {
      MoveLockToSwitch(lock, slots, [state](bool /*installed*/) {
        if (--state->adds_left == 0) state->done();
      });
    }
  };
  if (to_remove.empty()) {
    launch_adds();
    return true;
  }
  for (const LockId lock : to_remove) {
    MoveLockToServer(lock, [state, launch_adds]() {
      if (--state->removals_left == 0) launch_adds();
    });
  }
  return true;
}

void ControlPlane::RecoverSwitch() {
  switch_.Restart();
  // Reinstall the committed allocation, but suspended (queue-but-don't-
  // grant): grants issued before the crash are still live until their
  // leases expire, and an immediate regrant would overlap them — the
  // switch-restart analogue of the one-lease server grace below. Every
  // pre-crash grant predates the restart, so one lease from now they have
  // all expired; Activate then (the failover backup's handshake, §4.5).
  std::vector<LockId> reinstalled;
  std::vector<LockId> refused;
  for (const auto& [lock, slots] : installed_.switch_slots) {
    const NodeId home = ServerFor(lock);
    ServerObjFor(lock).EvictOwnership(lock);
    if (switch_.InstallLock(lock, home, slots, /*suspended=*/true)) {
      reinstalled.push_back(lock);
    } else {
      switch_.SetHomeServer(lock, home);
      refused.push_back(lock);
    }
  }
  for (const LockId lock : refused) CommitSwitchRemoval(lock);
  sim_.Schedule(config_.lease,
                [this, reinstalled = std::move(reinstalled)] {
                  for (const LockId lock : reinstalled) {
                    // Skip locks a migration moved (or removed) meanwhile.
                    if (switch_.IsSuspended(lock)) switch_.Activate(lock);
                  }
                });
}

bool ControlPlane::ServerAlive(int index) const {
  NETLOCK_CHECK(index >= 0 &&
                index < static_cast<int>(servers_.size()));
  return alive_[index];
}

void ControlPlane::ReassignInstalledHomes() {
  for (const LockId lock : switch_.table().InstalledLocks()) {
    switch_.table().ReassignHomeServer(lock, ServerFor(lock));
  }
}

void ControlPlane::FailServer(int index) {
  NETLOCK_CHECK(index >= 0 &&
                index < static_cast<int>(servers_.size()));
  NETLOCK_CHECK(alive_[index]);
  servers_[index]->Fail();
  alive_[index] = false;
  // Survivors inherit the dead server's locks but must not grant them for
  // one lease: grants issued by the dead server may still be held.
  const SimTime grace = sim_.now() + config_.lease;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (alive_[i]) servers_[i]->GracePeriodUntil(grace);
  }
  // q2 overflow buffers of switch-resident locks homed on the dead server
  // move too (their content died with it; the overflow wedge sweep
  // re-arms the handshake against the new home).
  ReassignInstalledHomes();
}

void ControlPlane::RecoverServer(int index) {
  NETLOCK_CHECK(index >= 0 &&
                index < static_cast<int>(servers_.size()));
  NETLOCK_CHECK(!alive_[index]);
  servers_[index]->Restart();
  alive_[index] = true;
  // The recovered server may immediately receive its old locks (the hash
  // routes them home again), some of whose grants were issued by a
  // substitute moments ago: grace-gate it for one lease.
  servers_[index]->GracePeriodUntil(sim_.now() + config_.lease);
  // Substitutes drop the state they took over for re-homed locks; their
  // waiting clients re-submit (client retransmission) to the new home.
  const NodeId recovered = servers_[index]->node();
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (static_cast<int>(i) == index || !alive_[i]) continue;
    for (const LockId lock : servers_[i]->OwnedLocks()) {
      if (ServerFor(lock) == recovered) servers_[i]->DropState(lock);
    }
  }
  ReassignInstalledHomes();
}

}  // namespace netlock
