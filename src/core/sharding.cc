#include "core/sharding.h"

#include <string>

#include "common/check.h"

namespace netlock {

namespace {

/// Static process names for the trace exporter (it stores pointers, never
/// copies). Racks beyond the table keep their pid but go unnamed.
constexpr const char* kRackNames[] = {
    "rack0",  "rack1",  "rack2",  "rack3",  "rack4",  "rack5",
    "rack6",  "rack7",  "rack8",  "rack9",  "rack10", "rack11",
    "rack12", "rack13", "rack14", "rack15"};
constexpr int kNumRackNames =
    static_cast<int>(sizeof(kRackNames) / sizeof(kRackNames[0]));

/// Poll interval for the re-home drain (the control plane's migration
/// drain polls at the same rate).
constexpr SimTime kRehomePollInterval = 100 * kMicrosecond;

}  // namespace

// --- LockDirectory ---

LockDirectory::LockDirectory(int num_racks) : num_racks_(num_racks) {
  NETLOCK_CHECK(num_racks >= 1);
}

int LockDirectory::HashRack(LockId lock, int num_racks) {
  // SplitMix64-style finalizer: uncorrelated with the control plane's
  // server-partition hash and the trace sampler, so rack assignment does
  // not alias either.
  std::uint64_t h = lock;
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<int>(h % static_cast<std::uint64_t>(num_racks));
}

void LockDirectory::SetOverride(LockId lock, int rack) {
  NETLOCK_CHECK(rack >= 0 && rack < num_racks_);
  overrides_[lock] = rack;
}

void LockDirectory::ClearOverride(LockId lock) { overrides_.erase(lock); }

// --- ShardedSession ---

ShardedSession::ShardedSession(
    const LockDirectory& directory,
    std::vector<std::unique_ptr<LockSession>> rack_sessions)
    : directory_(directory), rack_sessions_(std::move(rack_sessions)) {
  NETLOCK_CHECK(!rack_sessions_.empty());
  NETLOCK_CHECK(static_cast<int>(rack_sessions_.size()) ==
                directory_.num_racks());
}

void ShardedSession::Acquire(LockId lock, LockMode mode, TxnId txn,
                             Priority priority, AcquireCallback cb) {
  // The routing decision is made exactly once, here: the inner session owns
  // retransmissions, so every copy of this request goes to the same rack
  // even if the directory flips while it is in flight.
  const int rack = directory_.RackFor(lock);
  acquire_rack_[RouteKey{lock, txn}] = rack;
  rack_sessions_[rack]->Acquire(
      lock, mode, txn, priority,
      [this, lock, txn, cb = std::move(cb)](AcquireResult result) {
        if (result != AcquireResult::kGranted) {
          // Nothing to release later: drop the route.
          acquire_rack_.erase(RouteKey{lock, txn});
        }
        cb(result);
      });
}

int ShardedSession::TakeRoute(LockId lock, TxnId txn) {
  // Route to the rack the acquire went to, not the rack the directory
  // names now: a re-home in between must not strand the message.
  const auto it = acquire_rack_.find(RouteKey{lock, txn});
  if (it == acquire_rack_.end()) return directory_.RackFor(lock);
  const int rack = it->second;
  acquire_rack_.erase(it);
  return rack;
}

void ShardedSession::Release(LockId lock, LockMode mode, TxnId txn) {
  rack_sessions_[TakeRoute(lock, txn)]->Release(lock, mode, txn);
}

void ShardedSession::Cancel(LockId lock, LockMode mode, TxnId txn) {
  // The withdrawn acquire's callback never fires, so drop its route here.
  rack_sessions_[TakeRoute(lock, txn)]->Cancel(lock, mode, txn);
}

void ShardedSession::set_wound_observer(
    std::function<void(LockId, TxnId)> obs) {
  wound_observer_ = std::move(obs);
  for (auto& session : rack_sessions_) {
    session->set_wound_observer([this](LockId lock, TxnId txn) {
      // The wounded entry is gone server-side and no release will follow.
      acquire_rack_.erase(RouteKey{lock, txn});
      if (wound_observer_) wound_observer_(lock, txn);
    });
  }
}

// --- ShardedNetLock ---

ShardedNetLock::ShardedNetLock(Network& net, ShardedNetLockOptions options)
    : net_(net), options_(options), directory_(options.num_racks) {
  NETLOCK_CHECK(options_.num_racks >= 1);
  SimContext& context = net_.sim().context();
  racks_.reserve(options_.num_racks);
  for (int r = 0; r < options_.num_racks; ++r) {
    if (options_.num_racks > 1) {
      // Rack-owned components resolve their instruments and capture their
      // trace pid at construction; scoping both here labels everything the
      // rack allocates without touching single-rack behaviour.
      ScopedMetricPrefix prefix(context.metrics(),
                                "rack" + std::to_string(r) + ".");
      TraceLog::PidScope pid(context.trace(),
                             static_cast<std::uint32_t>(r) + 1);
      if (r < kNumRackNames) {
        context.trace().SetPidName(static_cast<std::uint32_t>(r) + 1,
                                   kRackNames[r]);
      }
      racks_.push_back(std::make_unique<NetLockManager>(net_, options_.rack));
    } else {
      racks_.push_back(std::make_unique<NetLockManager>(net_, options_.rack));
    }
    // A rack's migrations and restart activations leave alone the locks
    // the directory homes elsewhere and those a re-home is moving.
    racks_.back()->control_plane().SetOwnership([this, r](LockId lock) {
      return directory_.RackFor(lock) == r && !RehomeInFlight(lock);
    });
  }
}

void ShardedNetLock::InstallAllocation(const Allocation& allocation) {
  std::vector<Allocation> per_rack(racks_.size());
  for (const auto& [lock, slots] : allocation.switch_slots) {
    per_rack[directory_.RackFor(lock)].switch_slots.emplace_back(lock,
                                                                 slots);
  }
  for (const LockId lock : allocation.server_only) {
    per_rack[directory_.RackFor(lock)].server_only.push_back(lock);
  }
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    racks_[r]->InstallAllocation(per_rack[r]);
  }
}

void ShardedNetLock::InstallKnapsack(
    const std::vector<LockDemand>& demands) {
  std::vector<std::vector<LockDemand>> per_rack(racks_.size());
  for (const LockDemand& demand : demands) {
    per_rack[directory_.RackFor(demand.lock)].push_back(demand);
  }
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    racks_[r]->InstallKnapsack(per_rack[r]);
  }
}

std::unique_ptr<LockSession> ShardedNetLock::CreateSession(
    ClientMachine& machine, TenantId tenant) {
  if (racks_.size() == 1) return racks_[0]->CreateSession(machine, tenant);
  std::vector<std::unique_ptr<LockSession>> sessions;
  sessions.reserve(racks_.size());
  for (auto& rack : racks_) {
    sessions.push_back(rack->CreateSession(machine, tenant));
  }
  return std::make_unique<ShardedSession>(directory_, std::move(sessions));
}

std::uint64_t ShardedNetLock::SwitchGrants() const {
  std::uint64_t total = 0;
  for (const auto& rack : racks_) total += rack->SwitchGrants();
  return total;
}

std::uint64_t ShardedNetLock::ServerGrants() const {
  std::uint64_t total = 0;
  for (const auto& rack : racks_) total += rack->ServerGrants();
  return total;
}

bool ShardedNetLock::RehomeLock(LockId lock, int to_rack,
                                std::function<void()> done) {
  NETLOCK_CHECK(to_rack >= 0 && to_rack < num_racks());
  const int from_rack = directory_.RackFor(lock);
  // The source's own migration of the lock would land behind the re-home
  // (e.g. install it on the source switch after the directory moved on).
  if (from_rack == to_rack || RehomeInFlight(lock) ||
      racks_[from_rack]->control_plane().Moving(lock)) {
    if (done) done();
    return false;
  }
  rehoming_.insert(lock);
  NetLockManager& src = *racks_[from_rack];
  NetLockManager& dst = *racks_[to_rack];

  // Preserve the source's placement: a switch-resident lock re-homes onto
  // the target's switch with the same slot count; a server-owned lock
  // stays server-owned at the target.
  std::uint32_t slots = 0;
  if (src.lock_switch().IsInstalled(lock)) {
    const SwitchLockEntry* entry = src.lock_switch().table().Find(lock);
    for (const LockBounds& region : entry->regions) {
      slots += region.right - region.left;
    }
  }
  // Step 1: stage the lock at the target, suspended — requests may queue
  // there but nothing is granted while the source still holds state. The
  // target's control plane places it (switch, or server when the switch
  // is full or the lock was server-owned at the source).
  dst.control_plane().StageLock(lock, slots);
  // Step 2: flip the directory. New acquires route to the (still
  // suspended) target; requests already in flight — and their
  // retransmissions — stay with the source, which keeps granting until its
  // queue drains.
  directory_.SetOverride(lock, to_rack);

  // Step 4 (scheduled from step 3 below): the source is drained — drop its
  // state, tombstone-route stragglers to the target's switch, activate.
  auto finish = [this, lock, from_rack, to_rack, done = std::move(done)]() {
    NetLockManager& source = *racks_[from_rack];
    NetLockManager& target = *racks_[to_rack];
    // Any stray for this lock still addressed to the source (a duplicated
    // release, a late retransmission) forwards to the target's switch,
    // which now owns the lock and absorbs stale messages like any other
    // owner.
    source.lock_switch().SetHomeServer(lock, target.lock_switch().node());
    source.control_plane().ServerObjFor(lock).DropState(lock);
    target.control_plane().ActivateStaged(lock);
    rehoming_.erase(lock);
    ++rehomes_completed_;
    if (done) done();
  };

  // Step 3: drain the source. If the lock is switch-resident there, first
  // move it down to the source's server (pause -> drain -> TakeOwnership,
  // the control plane's own protocol), then poll until every grant has
  // been released and nothing is buffered.
  auto drained = [this, lock, from_rack, finish = std::move(finish)]() {
    NetLockManager& source = *racks_[from_rack];
    LockServer& server = source.control_plane().ServerObjFor(lock);
    if (!server.QueueEmpty(lock) || server.OverflowDepth(lock) > 0) {
      return false;
    }
    finish();
    return true;
  };
  if (src.lock_switch().IsInstalled(lock)) {
    src.control_plane().MoveLockToServer(
        lock, [this, drained = std::move(drained)]() {
          PollUntil(net_.sim(), kRehomePollInterval, drained);
        });
  } else {
    PollUntil(net_.sim(), kRehomePollInterval, std::move(drained));
  }
  return true;
}

}  // namespace netlock
