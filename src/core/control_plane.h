// The NetLock control plane (paper Sections 4.3, 4.5).
//
// Runs on the switch CPU / management plane: installs memory allocations,
// partitions locks across lock servers, migrates locks between switch and
// servers as popularity changes (pause -> drain -> move), polls leases to
// clear expired transactions, tracks per-lock demand counters (r_i, c_i)
// for reallocation, and owns the switch lifecycle: failure, restart, and
// the one optional standby switch.
//
// Switch recovery is one state machine under one grace rule (§4.5): a
// failed switch's grants stay live until their leases expire, so no switch
// activates a reinstalled lock, and no server takes over a lock handed down
// from the failed switch, before grace_until() = last failure + one lease.
// Three shapes share it:
//
//   * no standby: FailSwitch() stops the switch; RecoverSwitch() restarts
//     it with the committed allocation installed suspended (queue but do
//     not grant) and activates it at the grace;
//   * cold standby (a backup switch): FailSwitch() installs the committed
//     allocation on the backup, suspended, re-points clients and servers
//     to it, and activates it at the grace. RecoverSwitch() restarts the
//     primary suspended and hands each lock back once the grace is over
//     and the backup's queue for it has drained ("we only grant locks from
//     the backup switch until the queue in the backup switch gets empty");
//     the drained backup is wiped back to cold;
//   * hot standby (a chain tail, §6.5 / NetChain): every op is replicated
//     head -> tail, so FailSwitch() promotes the tail in place with no
//     wait. Recovering the head after a promotion is unsupported, and
//     migrations are not replicated down the chain.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "core/memory_alloc.h"
#include "dataplane/switch_dataplane.h"
#include "server/lock_server.h"
#include "sim/simulator.h"

namespace netlock {

class NetLockSession;

struct ControlPlaneConfig {
  /// Lease duration for transaction-failure / deadlock recovery.
  SimTime lease = 50 * kMillisecond;
  /// How often the control plane polls the data plane for expired leases.
  SimTime lease_poll_interval = 10 * kMillisecond;
};

class ControlPlane {
 public:
  ControlPlane(Simulator& sim, LockSwitch& lock_switch,
               std::vector<LockServer*> servers,
               ControlPlaneConfig config = ControlPlaneConfig{});

  /// Home server for a lock: static hash partitioning, as with the
  /// directory service the paper's clients consult.
  NodeId ServerFor(LockId lock) const;
  LockServer& ServerObjFor(LockId lock) const;

  /// Installs an allocation computed by KnapsackAllocate/RandomAllocate:
  /// switch-resident locks get their regions; every lock (resident or not)
  /// gets a home-server route. Locks whose region cannot be placed (switch
  /// full) fall back to server-only.
  void InstallAllocation(const Allocation& allocation);

  /// Starts periodic lease polling: ClearExpired on every live switch that
  /// holds state, and on every server. While a chain tail replicates,
  /// forced releases run on the head (they replicate down the chain) and
  /// the overflow re-arm on the tail (the emitting replica).
  void StartLeasePolling();

  /// Locks for which `owns` returns false belong to another rack or to a
  /// cross-rack re-home in flight: migrations and restart activation leave
  /// them alone. Unset, the control plane owns every lock.
  void SetOwnership(std::function<bool(LockId)> owns) {
    owns_ = std::move(owns);
  }

  // --- Dynamic popularity tracking and reallocation (Section 4.3) ---

  /// Harvests the data-plane demand counters (switch + every server) into
  /// one demand vector, normalized over the window since the last harvest,
  /// and resets them. This is the paper's counter-driven input to
  /// Algorithm 3.
  std::vector<LockDemand> HarvestDemands();

  /// HarvestDemands() sorted by lock id: the controller's and the
  /// knapsack's input. Consumes the window.
  std::vector<LockDemand> CombinedDemands();

  /// Recomputes the allocation from CombinedDemands() and migrates locks
  /// accordingly. `done` fires when all migrations complete. Returns false
  /// (demand window untouched, `done` dropped) if a previous migration
  /// batch is still draining — overlapping batches would double-pause
  /// locks and race each other's sequencing.
  bool Reallocate(std::uint32_t switch_capacity, std::function<void()> done);

  /// Migrates from the installed allocation to `target`: removals drain
  /// first, then additions/resizes install. Each `installed_` entry commits
  /// only when its migration lands, so RecoverSwitch() mid-batch reinstalls
  /// exactly what the switch actually owned. Returns false (and drops
  /// `done`) if a batch is already in flight.
  bool ApplyAllocation(const Allocation& target, std::function<void()> done);

  /// True while a Reallocate/ApplyAllocation migration batch is draining.
  bool MigrationInFlight() const { return migration_in_flight_; }

  /// True while a MoveLockToServer/MoveLockToSwitch of `lock` is draining.
  bool Moving(LockId lock) const { return moving_.count(lock) != 0; }

  /// Migrates one lock out of the switch to its home server. The server
  /// takes over once the switch queue has drained and the grace is over.
  void MoveLockToServer(LockId lock, std::function<void()> done);

  /// Migrates one server lock into the switch with `slots` queue slots,
  /// once the server's queue has drained and its takeover grace is over.
  /// `done(installed)` reports whether the lock actually landed on the
  /// switch (false: fragmentation fallback kept it server-owned).
  void MoveLockToSwitch(LockId lock, std::uint32_t slots,
                        std::function<void(bool installed)> done);

  // --- Switch failure and recovery (Section 4.5; see the header comment) ---

  enum class Standby {
    kCold,  ///< Empty backup: takes the allocation on failure.
    kHot,   ///< Chain tail: replicates every op, promoted on failure.
  };

  /// Attaches the one optional standby switch. A hot standby gets the
  /// committed allocation now and the chain is wired; call after
  /// InstallAllocation.
  void AttachStandby(LockSwitch& standby, Standby kind);

  /// Sessions re-pointed to the active switch when it changes (the
  /// datacenter routing update that redirects the NetLock service address).
  void RegisterSession(NetLockSession* session);

  /// Fails the active switch: register state is gone and, unless a hot
  /// standby takes over, the grace restarts at now + lease. May be called
  /// again after RecoverSwitch, also while a backup is still draining:
  /// locks already handed back to the primary are re-suspended on the
  /// backup until the new grace; locks still draining keep granting.
  void FailSwitch();

  /// Restarts the failed switch with the committed allocation installed
  /// suspended. `done` fires once every lock grants from it again (with a
  /// backup: once the backup has drained and gone cold); it never fires if
  /// the switch fails again first. Not supported after a chain promotion.
  void RecoverSwitch(std::function<void()> done = nullptr);

  bool switch_failed() const { return switch_failed_; }

  /// True while the standby serves: a backup until it has drained after
  /// RecoverSwitch, a chain tail once promoted.
  bool standby_active() const { return standby_active_; }

  /// The switch new acquires currently target.
  NodeId active_switch() const;

  /// No reinstalled lock grants before this instant (last failure + lease).
  SimTime grace_until() const { return grace_until_; }

  // --- Cross-rack re-home staging (core/sharding.h) ---

  /// Stages an incoming lock, suspended: on the switch with `slots` queue
  /// slots (committed to the allocation, so a restart reinstalls it), or,
  /// when `slots` is 0 or the switch has no room, paused on its home
  /// server. Requests queue; nothing is granted until ActivateStaged.
  void StageLock(LockId lock, std::uint32_t slots);

  /// Starts granting a staged lock: on the switch at the grace (at the
  /// restart's activation if the switch is down), else on the server now.
  void ActivateStaged(LockId lock);

  // --- Lock-server failure (Section 4.5: "the locks allocated to this
  // server is assigned to another lock server ... the server waits for the
  // leases to expire before granting the locks") ---

  /// Fails lock server `index`: its locks re-hash onto the surviving
  /// servers, which take them under a one-lease grace period; installed
  /// switch locks homed there get their q2 reassigned.
  void FailServer(int index);

  /// Restarts lock server `index` and re-homes its locks: substitutes drop
  /// the transferred state (clients re-submit, §4.5) and the recovered
  /// server serves them after a one-lease grace.
  void RecoverServer(int index);

  bool ServerAlive(int index) const;

  const ControlPlaneConfig& config() const { return config_; }

  /// The allocation currently installed (what a recovery reinstalls).
  const Allocation& installed() const { return installed_; }

  /// The lock servers this control plane manages.
  const std::vector<LockServer*>& servers() const { return servers_; }

 private:
  void PollLeases();

  /// Points every lock installed on the primary or the standby at its
  /// current home server (after the alive server set changed).
  void ReassignInstalledHomes();

  bool Owns(LockId lock) const { return !owns_ || owns_(lock); }
  bool hot() const {
    return standby_ != nullptr && standby_kind_ == Standby::kHot;
  }

  /// Installs every committed switch lock `sw` lacks (the server's stray
  /// state for it is evicted first) and returns the locks it refused.
  std::vector<LockId> InstallCommitted(LockSwitch& sw, bool suspended);

  /// Points servers and registered sessions at `to`; releases for grants
  /// recorded against `redirect_from` follow (chain promotion).
  void Repoint(NodeId to, NodeId redirect_from = kInvalidNode);

  /// Ends a server-side pause: the home server owns `lock`, grants from
  /// its q2 backlog, and sends requests buffered while paused back through
  /// the switch in order.
  void ResumeOnServer(LockId lock);

  /// Hands `lock` back to the primary as soon as the grace is over and the
  /// backup's queue for it is empty; wipes the drained backup.
  void PollFailBack(std::uint64_t failures, std::function<void()> done);

  /// Per-lock `installed_` bookkeeping: entries commit as migrations land,
  /// never ahead of them (split-brain guard for RecoverSwitch).
  void CommitSwitchInstall(LockId lock, std::uint32_t slots);
  void CommitSwitchRemoval(LockId lock);

  Simulator& sim_;
  LockSwitch& switch_;
  std::vector<LockServer*> servers_;
  std::vector<bool> alive_;
  ControlPlaneConfig config_;
  std::function<bool(LockId)> owns_;
  // Switch lifecycle.
  LockSwitch* standby_ = nullptr;
  Standby standby_kind_ = Standby::kCold;
  std::vector<NetLockSession*> sessions_;
  bool switch_failed_ = false;
  bool standby_active_ = false;
  /// Counts FailSwitch calls: a recovery started after failure N is
  /// superseded (never activates, never fires `done`) by failure N + 1.
  std::uint64_t failures_ = 0;
  SimTime grace_until_ = 0;
  /// Locks whose grant stream moved back to the recovered primary while
  /// the backup drains: a second failure re-suspends these on the backup.
  std::unordered_set<LockId> returned_to_primary_;
  Allocation installed_;
  SimTime window_start_ = 0;
  bool lease_polling_ = false;
  bool migration_in_flight_ = false;
  std::unordered_set<LockId> moving_;
};

}  // namespace netlock
