#include "core/control_plane.h"

#include <algorithm>
#include <unordered_map>

#include "client/client.h"
#include "common/check.h"
#include "net/lock_wire.h"

namespace netlock {

namespace {
/// How often a migration or fail-back polls for its queue to drain.
constexpr SimTime kDrainPollInterval = 100 * kMicrosecond;
}  // namespace

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
  // every recovery path reinstalls installed_.switch_slots and evicts the
  // server state of those locks first.
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
      // server instead; the default route below covers it.
      installed_.server_only.push_back(lock);
    }
  }
  // Server-only locks need no per-lock entries: the default hash route
  // already sends them to their home servers.
}

void ControlPlane::StartLeasePolling() {
  if (lease_polling_) return;
  lease_polling_ = true;
  PollLeases();
}

void ControlPlane::PollLeases() {
  sim_.Schedule(config_.lease_poll_interval, [this]() {
    // A failed switch sweeps nothing (LockSwitch::ClearExpired), so the
    // primary's sweep is unconditional.
    if (hot() && !switch_failed_) {
      switch_.ClearExpired(config_.lease,
                           LockSwitch::SweepScope::kForcedReleasesOnly);
      standby_->ClearExpired(config_.lease,
                             LockSwitch::SweepScope::kOverflowRearmOnly);
    } else {
      switch_.ClearExpired(config_.lease);
      if (standby_active_) standby_->ClearExpired(config_.lease);
    }
    for (LockServer* server : servers_) {
      server->ClearExpired(config_.lease);
    }
    PollLeases();
  });
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
  NETLOCK_CHECK(!hot());  // Migrations are not replicated down a chain.
  // §4.3: pause enqueuing (new requests buffer in q2 at the home server),
  // wait until the switch queue drains, then hand ownership to the server.
  moving_.insert(lock);
  switch_.PauseLock(lock, true);
  PollUntil(sim_, kDrainPollInterval,
            [this, lock, done = std::move(done)]() {
    if (switch_.IsInstalled(lock)) {
      // Re-pause: a restart mid-drain reinstalls the lock unpaused.
      switch_.PauseLock(lock, true);
      if (!switch_.QueueEmpty(lock)) return false;
    }
    // A queue wiped by a crash proves nothing: its holders' leases are
    // live until the grace is over.
    if (sim_.now() < grace_until_) return false;
    // A restart may also have refused the lock; then there is no entry.
    if (switch_.IsInstalled(lock)) switch_.RemoveLock(lock);
    // Route by the alive-server hash from now on, not by the entry's home:
    // a pinned server can fail or lose the lock to a recovered peer.
    switch_.ClearHomeServer(lock);
    ServerObjFor(lock).TakeOwnership(lock);
    CommitSwitchRemoval(lock);
    moving_.erase(lock);
    if (done) done();
    return true;
  });
}

void ControlPlane::MoveLockToSwitch(LockId lock, std::uint32_t slots,
                                    std::function<void(bool)> done) {
  NETLOCK_CHECK(!switch_.IsInstalled(lock));
  NETLOCK_CHECK(!hot());
  LockServer& server = ServerObjFor(lock);
  // Pause the server's queue: new requests buffer server-side; existing
  // holders drain via releases.
  moving_.insert(lock);
  server.PauseLock(lock, true);
  PollUntil(sim_, kDrainPollInterval,
            [this, lock, slots, &server, done = std::move(done)]() {
    if (!server.QueueEmpty(lock)) return false;
    // A server under its takeover grace has not granted the lock yet, but
    // the failed server it inherited the lock from may have: the switch
    // must not grant it either until those leases expire.
    if (sim_.now() < server.grace_until()) return false;
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
      ResumeOnServer(lock);
      CommitSwitchRemoval(lock);
    }
    moving_.erase(lock);
    if (done) done(installed);
    return true;
  });
}

std::vector<LockDemand> ControlPlane::CombinedDemands() {
  std::vector<LockDemand> demands = HarvestDemands();
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
    if (!Owns(lock)) continue;
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
    if (!switch_.IsInstalled(lock) && Owns(lock)) {
      to_add.emplace_back(lock, slots);
    }
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

std::vector<LockId> ControlPlane::InstallCommitted(LockSwitch& sw,
                                                   bool suspended) {
  std::vector<LockId> refused;
  for (const auto& [lock, slots] : installed_.switch_slots) {
    // A backup still draining from an earlier failure keeps its queues.
    if (sw.IsInstalled(lock)) continue;
    const NodeId home = ServerFor(lock);
    ServerObjFor(lock).EvictOwnership(lock);
    if (!sw.InstallLock(lock, home, slots, suspended)) {
      sw.ClearHomeServer(lock);  // Served by its home server.
      refused.push_back(lock);
    }
  }
  return refused;
}

void ControlPlane::AttachStandby(LockSwitch& standby, Standby kind) {
  NETLOCK_CHECK(standby_ == nullptr && !switch_failed_);
  standby_ = &standby;
  standby_kind_ = kind;
  standby.SetDefaultRoute([this](LockId lock) { return ServerFor(lock); });
  if (kind == Standby::kCold) return;
  // Mirror the allocation: the identical install sequence yields identical
  // region layout and metadata indices, the precondition for the replicas
  // evolving in lock-step. Ops (and server pushes) enter at the head.
  NETLOCK_CHECK(InstallCommitted(standby, /*suspended=*/false).empty());
  switch_.ConfigureChainHead(standby.node());
  standby.ConfigureChainTail(switch_.node());
}

void ControlPlane::RegisterSession(NetLockSession* session) {
  NETLOCK_CHECK(session != nullptr);
  sessions_.push_back(session);
}

NodeId ControlPlane::active_switch() const {
  return switch_failed_ && standby_ != nullptr ? standby_->node()
                                               : switch_.node();
}

void ControlPlane::Repoint(NodeId to, NodeId redirect_from) {
  // Overflow (q2) traffic from the servers must reach the live switch.
  for (LockServer* server : servers_) server->set_switch_node(to);
  for (NetLockSession* session : sessions_) {
    session->set_switch_node(to);
    if (redirect_from != kInvalidNode) {
      session->RedirectGrantSource(redirect_from, to);
    }
  }
}

void ControlPlane::FailSwitch() {
  NETLOCK_CHECK(!switch_failed_);
  switch_failed_ = true;
  ++failures_;
  switch_.Fail();
  if (hot()) {
    // The tail already holds the complete lock state: failover is a
    // routing update, and releases recorded against the head flow to the
    // tail, so every in-flight hold completes normally. No grace.
    standby_->PromoteStandalone();
    standby_active_ = true;
    Repoint(standby_->node(), switch_.node());
    return;
  }
  grace_until_ = sim_.now() + config_.lease;
  if (standby_ == nullptr) return;
  // Cold backup: requests queue on it at once, nothing grants before the
  // grace. On a second failure during a drain the backup still holds the
  // locks: re-suspend exactly those whose grant stream had moved back to
  // the primary (its fresh grants must expire first).
  standby_active_ = true;
  for (const LockId lock : returned_to_primary_) {
    if (standby_->IsInstalled(lock)) standby_->Suspend(lock);
  }
  returned_to_primary_.clear();
  // The backup is empty or holds a subset; capacity matches the primary.
  NETLOCK_CHECK(InstallCommitted(*standby_, /*suspended=*/true).empty());
  Repoint(standby_->node());
  // A later failure moves the grace, and its own activation supersedes
  // this one; an early RecoverSwitch must not cancel it, or the backup's
  // queues would never grant (and so never drain).
  sim_.ScheduleAt(grace_until_, [this]() {
    if (!standby_active_ || sim_.now() < grace_until_) return;
    for (const LockId lock : standby_->table().InstalledLocks()) {
      standby_->Activate(lock);
    }
  });
}

void ControlPlane::RecoverSwitch(std::function<void()> done) {
  NETLOCK_CHECK(switch_failed_);
  // Head recovery after a chain promotion is unsupported: the promoted
  // tail stays the only switch.
  NETLOCK_CHECK(!hot());
  switch_failed_ = false;
  switch_.Restart();
  // Reinstall the committed allocation suspended (queue-but-don't-grant):
  // grants issued before the crash are live until the grace is over.
  std::vector<LockId> refused = InstallCommitted(switch_, /*suspended=*/true);
  if (standby_active_) {
    // The backup holds every refused lock's queue; it cannot hand back.
    NETLOCK_CHECK(refused.empty());
    Repoint(switch_.node());
    PollFailBack(failures_, std::move(done));
    return;
  }
  // A refused lock falls back to its home server, which holds its requests
  // until the grace too.
  for (const LockId lock : refused) {
    CommitSwitchRemoval(lock);
    ServerObjFor(lock).PauseLock(lock, true);
  }
  const std::uint64_t failures = failures_;
  sim_.ScheduleAt(std::max(sim_.now(), grace_until_),
                  [this, failures, refused = std::move(refused),
                   done = std::move(done)]() {
    if (failures != failures_) return;  // Failed again: superseded.
    for (const LockId lock : switch_.table().InstalledLocks()) {
      if (Owns(lock) && switch_.IsSuspended(lock)) switch_.Activate(lock);
    }
    for (const LockId lock : refused) {
      // Skip a lock a migration moved back, or a re-home still moves.
      if (!switch_.IsInstalled(lock) && Owns(lock)) ResumeOnServer(lock);
    }
    if (done) done();
  });
}

void ControlPlane::PollFailBack(std::uint64_t failures,
                                std::function<void()> done) {
  PollUntil(sim_, kDrainPollInterval,
            [this, failures, done = std::move(done)]() {
    if (failures != failures_) return true;  // Superseded by a failure.
    // Until the grace is over an empty backup queue proves nothing: the
    // backup itself has not granted yet, the failed primary's holders have.
    if (sim_.now() < grace_until_) return false;
    bool all_drained = true;
    for (const LockId lock : switch_.table().InstalledLocks()) {
      if (!switch_.IsSuspended(lock)) continue;
      // "Only grant from the backup until its queue gets empty": each lock
      // returns the moment the backup's queue for it drains, which keeps
      // one grant order per lock.
      if (!standby_->IsInstalled(lock) || standby_->QueueEmpty(lock)) {
        switch_.Activate(lock);
        returned_to_primary_.insert(lock);
      } else {
        all_drained = false;
      }
    }
    if (!all_drained) return false;
    standby_active_ = false;
    standby_->Restart();
    returned_to_primary_.clear();
    if (done) done();
    return true;
  });
}

void ControlPlane::StageLock(LockId lock, std::uint32_t slots) {
  NETLOCK_CHECK(standby_ == nullptr);
  const NodeId home = ServerFor(lock);
  if (slots > 0 && switch_.InstallLock(lock, home, slots,
                                       /*suspended=*/true)) {
    CommitSwitchInstall(lock, slots);
    return;
  }
  switch_.ClearHomeServer(lock);  // Drops a tombstone from an earlier move.
  ServerObjFor(lock).PauseLock(lock, true);
}

void ControlPlane::ActivateStaged(LockId lock) {
  if (!switch_.IsInstalled(lock)) {
    ResumeOnServer(lock);
    return;
  }
  // A down switch activates what it reinstalls when it recovers.
  if (switch_failed_) return;
  if (sim_.now() >= grace_until_) {
    switch_.Activate(lock);
    return;
  }
  sim_.ScheduleAt(grace_until_, [this, lock]() {
    // A later failure moved the grace; its recovery activates the lock.
    if (switch_failed_ || sim_.now() < grace_until_) return;
    if (switch_.IsSuspended(lock)) switch_.Activate(lock);
  });
}

void ControlPlane::ResumeOnServer(LockId lock) {
  LockServer& server = ServerObjFor(lock);
  server.PauseLock(lock, false);
  server.TakeOwnership(lock);  // Converts any q2 buffer, grants the head.
  // Requests buffered while paused re-enter through the switch in order.
  server.ForwardBufferedToSwitch(lock);
}

bool ControlPlane::ServerAlive(int index) const {
  NETLOCK_CHECK(index >= 0 &&
                index < static_cast<int>(servers_.size()));
  return alive_[index];
}

void ControlPlane::ReassignInstalledHomes() {
  for (LockSwitch* sw : {&switch_, standby_}) {
    if (sw == nullptr) continue;
    for (const LockId lock : sw->table().InstalledLocks()) {
      sw->table().ReassignHomeServer(lock, ServerFor(lock));
    }
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
