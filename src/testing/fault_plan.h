// FaultPlan: a declarative timeline of faults injected into one simulated
// run — network adversary knobs (loss, duplication, reordering, jitter),
// timed partitions, lease-expiry bursts, switch failover (cold backup or
// chain), and lock-server crash/recovery. Plans serialize to a single
// compact token so a failing fuzzer schedule can be replayed from one
// command-line argument.
//
// Every action is *guarded* at execution time (a RecoverPrimary with the
// primary healthy is a no-op, and so on), so any subsequence of a valid
// plan is itself valid — the property the delta-debugging shrinker relies
// on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace netlock::testing {

enum class FaultKind : std::uint8_t {
  /// Network knobs, applied to every client<->switch link. `value` is the
  /// probability in permille (loss/duplicate/reorder) or the jitter bound
  /// in sim-time units (kJitter). `duration` > 0 re-zeros the knob at
  /// `at + duration`; 0 leaves it on until end-of-run sanitization.
  kLoss = 0,
  kDuplicate,
  kReorder,
  kJitter,
  /// Zeroes all network knobs at `at`.
  kClearFaults,
  /// Black-holes every session of client machine `target % machines` for
  /// `duration` (0 = until end-of-run sanitization).
  kClientPartition,
  /// A client partition long enough that every lease the machine holds
  /// expires and is force-released by the lease sweep (`duration` is
  /// clamped up to 2.5 leases by the runner).
  kLeaseExpiryBurst,
  /// Switch failover to a cold backup (the runner attaches one): fail the
  /// primary over / drain the backup back into the recovered primary.
  kFailPrimary,
  kRecoverPrimary,
  /// Lock-server crash/recovery through the control plane (§4.5 rehash +
  /// grace period). `target % num_servers` picks the server.
  kServerFail,
  kServerRecover,
  /// Switch crash and in-place restart through the control plane
  /// (register state lost, clients retry into the lease-cleared switch) —
  /// the Figure 15 failure model. With a standby attached these act like
  /// the failover actions above: every switch failure is
  /// ControlPlane::FailSwitch / RecoverSwitch.
  kSwitchCrash,
  kSwitchRestart,
  /// Control-plane reallocation on rack `target % racks`: re-runs the
  /// knapsack from live demand counters and migrates locks between switch
  /// and servers mid-schedule (skipped while that rack's switch is down or
  /// another migration is in flight).
  kReallocate,
  /// Cross-rack re-home of lock `target % num_locks` onto rack
  /// `value % racks` via ShardedNetLock::RehomeLock. A no-op on
  /// single-rack schedules or when a migration is already in flight.
  kRehome,
  /// Head crash on a two-switch chain (§6.5): the runner stands up a
  /// replicating tail, and this fails the head over to it. The head stays
  /// down (head recovery after promotion is unsupported).
  kFailHead,
};

const char* ToString(FaultKind kind);

struct FaultAction {
  FaultKind kind = FaultKind::kClearFaults;
  /// Absolute sim time the action fires (0 = start of run).
  SimTime at = 0;
  /// For timed faults: how long the fault stays active (0 = indefinite).
  SimTime duration = 0;
  /// Kind-dependent index (machine or server).
  std::uint32_t target = 0;
  /// Kind-dependent magnitude (permille or sim-time units).
  std::uint32_t value = 0;

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

struct FaultPlan {
  std::vector<FaultAction> actions;

  /// True if any action perturbs packet delivery (knobs or partitions) —
  /// grant order is then no longer FIFO-comparable.
  bool PerturbsDelivery() const;

  /// True if the plan ever fails the primary switch over to a backup (the
  /// runner must attach a cold standby switch).
  bool NeedsBackup() const;

  /// True if the plan ever crashes a chain head (the runner must stand up
  /// a replicating tail).
  bool NeedsChain() const;

  /// True when no action can reorder, drop, or force-release anything:
  /// switch-side FIFO checking stays sound.
  bool Benign() const;

  /// "loss:1000:0:0:50,failsw:2000:0:0:0" — actions joined by ','; fields
  /// are kind:at:duration:target:value.
  std::string Serialize() const;
  static bool Parse(std::string_view text, FaultPlan* out);

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

}  // namespace netlock::testing
