#include "testing/fuzzer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/random.h"
#include "core/lock_engine.h"
#include "core/memory_alloc.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "testing/lock_oracle.h"
#include "workload/micro.h"

namespace netlock::testing {
namespace {

/// Fuzz runs use a short lease so expiry/recovery paths fire within a few
/// tens of simulated milliseconds.
constexpr SimTime kFuzzLease = 5 * kMillisecond;

/// How long after the workload stops the run may take to quiesce before
/// liveness violations are reported.
constexpr SimTime kSettleBudget = 400 * kMillisecond;

std::uint64_t Fold(std::uint64_t digest, std::uint64_t v) {
  return (digest ^ v) * 0x100000001b3ull;  // FNV-1a step.
}

bool ParseU64(std::string_view s, std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Executes fault actions against a live testbed. Every action is guarded
/// by current runtime state, so arbitrary subsequences of a plan (the
/// shrinker's probes) are always executable.
struct FaultDriver {
  Testbed& testbed;
  /// Leaf network nodes per engine session: one for a plain NetLockSession,
  /// one per rack for a ShardedSession.
  std::vector<std::vector<NodeId>>& session_nodes;
  std::vector<NodeId> switch_nodes;
  ControlPlane& control;
  /// A chain tail is attached: the head never recovers, and migrations
  /// (not replicated down the chain) are skipped.
  bool hot;
  int num_servers;
  int machines;
  int num_locks;
  std::uint32_t queue_capacity;
  LinkFaults current;
  bool realloc_in_flight = false;

  void ApplyKnobs() {
    // Faults live on the client<->switch legs only: the in-rack
    // switch<->server channel stays reliable and ordered, matching the
    // overflow protocol's coordination assumption (Section 4.3).
    for (const std::vector<NodeId>& nodes : session_nodes) {
      for (const NodeId leaf : nodes) {
        for (const NodeId sw : switch_nodes) {
          testbed.net().SetLinkFaults(leaf, sw, current);
        }
      }
    }
  }

  void SetKnob(FaultKind kind, std::uint32_t value) {
    const double p = static_cast<double>(value) / 1000.0;
    switch (kind) {
      case FaultKind::kLoss: current.loss = p; break;
      case FaultKind::kDuplicate: current.duplicate = p; break;
      case FaultKind::kReorder: current.reorder = p; break;
      case FaultKind::kJitter: current.jitter = value; break;
      default: return;
    }
    ApplyKnobs();
  }

  void BlockMachine(std::uint32_t target, bool block) {
    // Session i lives on machine i % machines (testbed round-robin).
    const int m = static_cast<int>(target % static_cast<std::uint32_t>(
                                                machines));
    for (std::size_t i = 0; i < session_nodes.size(); ++i) {
      if (static_cast<int>(i) % machines != m) continue;
      for (const NodeId leaf : session_nodes[i]) {
        if (block) {
          testbed.net().BlockNode(leaf);
        } else {
          testbed.net().UnblockNode(leaf);
        }
      }
    }
  }

  int AliveServers() const {
    int alive = 0;
    for (int i = 0; i < num_servers; ++i) {
      alive += control.ServerAlive(i) ? 1 : 0;
    }
    return alive;
  }

  void Fire(const FaultAction& action, bool start) {
    switch (action.kind) {
      case FaultKind::kLoss:
      case FaultKind::kDuplicate:
      case FaultKind::kReorder:
      case FaultKind::kJitter:
        SetKnob(action.kind, start ? action.value : 0);
        break;
      case FaultKind::kClearFaults:
        current = LinkFaults{};
        ApplyKnobs();
        break;
      case FaultKind::kClientPartition:
      case FaultKind::kLeaseExpiryBurst:
        BlockMachine(action.target, start);
        break;
      // Every switch failure goes through the control plane's one state
      // machine: the attached standby (if any) decides what a failure
      // means — backup failover, chain promotion, or an in-place crash.
      case FaultKind::kFailPrimary:
      case FaultKind::kSwitchCrash:
      case FaultKind::kFailHead:
        if (!control.switch_failed()) control.FailSwitch();
        break;
      case FaultKind::kRecoverPrimary:
      case FaultKind::kSwitchRestart:
        if (control.switch_failed() && !hot) control.RecoverSwitch();
        break;
      case FaultKind::kServerFail: {
        const int idx =
            static_cast<int>(action.target) % std::max(1, num_servers);
        if (control.ServerAlive(idx) && AliveServers() > 1) {
          control.FailServer(idx);
        }
        break;
      }
      case FaultKind::kServerRecover: {
        const int idx =
            static_cast<int>(action.target) % std::max(1, num_servers);
        if (!control.ServerAlive(idx)) control.RecoverServer(idx);
        break;
      }
      // Migration actions. Each is skipped while any other migration (a
      // reallocation, a re-home, a switch outage) is in flight, so the
      // control plane never runs two competing drains on one lock.
      case FaultKind::kReallocate:
        if (!hot && !control.switch_failed() && !realloc_in_flight &&
            testbed.sharded().rehomes_in_flight() == 0) {
          realloc_in_flight = true;
          const int rack = static_cast<int>(
              action.target %
              static_cast<std::uint32_t>(testbed.sharded().num_racks()));
          testbed.sharded().rack(rack).control_plane().Reallocate(
              queue_capacity, [this] { realloc_in_flight = false; });
        }
        break;
      case FaultKind::kRehome:
        if (testbed.sharded().num_racks() > 1 && !control.switch_failed() &&
            !realloc_in_flight) {
          const LockId lock = static_cast<LockId>(
              action.target % static_cast<std::uint32_t>(num_locks));
          const int to = static_cast<int>(
              action.value %
              static_cast<std::uint32_t>(testbed.sharded().num_racks()));
          testbed.sharded().RehomeLock(lock, to);
        }
        break;
    }
  }
};

bool TimedFault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLoss:
    case FaultKind::kDuplicate:
    case FaultKind::kReorder:
    case FaultKind::kJitter:
    case FaultKind::kClientPartition:
    case FaultKind::kLeaseExpiryBurst:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string Schedule::SerializeParams() const {
  std::string out;
  out += "m=" + std::to_string(workload.machines);
  out += ";spm=" + std::to_string(workload.sessions_per_machine);
  out += ";locks=" + std::to_string(workload.num_locks);
  out += ";cap=" + std::to_string(workload.queue_capacity);
  out += ";shared=" + std::to_string(workload.shared_permille);
  out += ";lpt=" + std::to_string(workload.locks_per_txn);
  out += ";racks=" + std::to_string(workload.racks);
  out += ";unord=" + std::to_string(workload.unordered);
  out += ";policy=" + std::to_string(workload.policy);
  out += ";ctrl=" + std::to_string(workload.controller);
  out += ";prio=" + std::to_string(workload.priorities);
  out += ";run=" + std::to_string(workload.run_time);
  out += ";plan=" + plan.Serialize();
  return out;
}

std::string Schedule::Serialize() const {
  return "seed=" + std::to_string(seed) + ";" + SerializeParams();
}

bool Schedule::Parse(std::string_view text, Schedule* out) {
  const std::uint64_t caller_seed = out->seed;  // Kept if `text` has none.
  *out = Schedule{};
  out->seed = caller_seed;
  while (!text.empty()) {
    const std::size_t semi = text.find(';');
    std::string_view field = text.substr(0, semi);
    if (semi == std::string_view::npos) {
      text = {};
    } else {
      text.remove_prefix(semi + 1);
    }
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "plan") {
      if (!FaultPlan::Parse(value, &out->plan)) return false;
      continue;
    }
    std::uint64_t num = 0;
    if (!ParseU64(value, &num)) return false;
    if (key == "seed") {
      out->seed = num;
    } else if (key == "m") {
      out->workload.machines = static_cast<int>(num);
    } else if (key == "spm") {
      out->workload.sessions_per_machine = static_cast<int>(num);
    } else if (key == "locks") {
      out->workload.num_locks = static_cast<int>(num);
    } else if (key == "cap") {
      out->workload.queue_capacity = static_cast<std::uint32_t>(num);
    } else if (key == "shared") {
      out->workload.shared_permille = static_cast<int>(num);
    } else if (key == "lpt") {
      out->workload.locks_per_txn = static_cast<int>(num);
    } else if (key == "racks") {
      out->workload.racks = static_cast<int>(num);
    } else if (key == "unord") {
      out->workload.unordered = static_cast<int>(num);
    } else if (key == "policy") {
      out->workload.policy = static_cast<int>(num);
    } else if (key == "ctrl") {
      out->workload.controller = static_cast<int>(num);
    } else if (key == "prio") {
      out->workload.priorities = static_cast<int>(num);
    } else if (key == "run") {
      out->workload.run_time = static_cast<SimTime>(num);
    } else {
      return false;
    }
  }
  return true;
}

std::string RunReport::Summary() const {
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "grants=%llu violations=%llu fifo=%llu stuck=%llu digest=%016llx %s",
      static_cast<unsigned long long>(grants),
      static_cast<unsigned long long>(violations),
      static_cast<unsigned long long>(fifo_violations),
      static_cast<unsigned long long>(stuck_cycles),
      static_cast<unsigned long long>(digest), ok ? "ok" : "FAIL");
  std::string out = buf;
  for (const std::string& problem : problems) {
    out += "\n  ";
    out += problem;
  }
  return out;
}

Schedule ScheduleFuzzer::Generate(std::uint64_t index) const {
  std::uint64_t state = (master_seed_ + 0x632be59bd9b4e019ull) ^
                        (index * 0x9e3779b97f4a7c15ull);
  const auto next = [&state]() { return SplitMix64(state); };
  const auto pick = [&next](std::uint64_t n) { return next() % n; };

  Schedule sched;
  sched.seed = next() | 1;
  WorkloadParams& w = sched.workload;
  w.machines = static_cast<int>(1 + pick(3));
  w.sessions_per_machine = static_cast<int>(1 + pick(3));
  w.num_locks = static_cast<int>(1 + pick(6));
  constexpr std::uint32_t kCaps[] = {4, 8, 16, 64, 256};
  w.queue_capacity = kCaps[pick(5)];
  constexpr int kShared[] = {0, 0, 300, 700};
  w.shared_permille = kShared[pick(4)];
  w.locks_per_txn = static_cast<int>(1 + pick(2));
  w.run_time = static_cast<SimTime>(20 + pick(31)) * kMillisecond;

  const SimTime run = w.run_time;
  const auto at_in = [&](SimTime lo, SimTime hi) {
    return lo + static_cast<SimTime>(
                    pick(static_cast<std::uint64_t>(hi - lo)));
  };
  std::vector<FaultAction>& plan = sched.plan.actions;

  const auto add_net_chaos = [&] {
    const auto knob = [&](FaultKind kind, std::uint32_t lo,
                          std::uint32_t span) {
      const SimTime duration =
          pick(2) ? at_in(2 * kMillisecond, run / 2) : 0;
      plan.push_back({kind, at_in(0, run / 2), duration, 0,
                      lo + static_cast<std::uint32_t>(pick(span))});
    };
    if (pick(2) != 0) knob(FaultKind::kLoss, 10, 140);
    if (pick(2) != 0) knob(FaultKind::kDuplicate, 20, 230);
    if (pick(2) != 0) knob(FaultKind::kReorder, 50, 350);
    if (pick(2) != 0) knob(FaultKind::kJitter, 200, 2800);
    if (plan.empty()) knob(FaultKind::kLoss, 10, 140);
  };
  const auto add_partitions = [&] {
    const int count = static_cast<int>(1 + pick(2));
    for (int i = 0; i < count; ++i) {
      if (pick(3) == 0) {
        plan.push_back({FaultKind::kLeaseExpiryBurst,
                        at_in(kMillisecond, run / 2), 0,
                        static_cast<std::uint32_t>(pick(8)), 0});
      } else {
        plan.push_back({FaultKind::kClientPartition,
                        at_in(kMillisecond, (run * 3) / 4),
                        kMillisecond + at_in(0, 2 * kFuzzLease),
                        static_cast<std::uint32_t>(pick(8)), 0});
      }
    }
  };
  const auto add_failover = [&] {
    const SimTime fail_at = at_in(2 * kMillisecond, run / 2);
    if (pick(4) == 0) {
      // Hot standby: crash the head of a replicating two-switch chain.
      // Faults stay on the client legs; the head->tail link is reliable.
      plan.push_back({FaultKind::kFailHead, fail_at, 0, 0, 0});
      if (pick(2) != 0) add_net_chaos();
      return;
    }
    plan.push_back({FaultKind::kFailPrimary, fail_at, 0, 0, 0});
    const SimTime recover_at =
        fail_at + 2 * kMillisecond + at_in(0, 2 * kFuzzLease);
    plan.push_back({FaultKind::kRecoverPrimary, recover_at, 0, 0, 0});
    if (pick(3) == 0) {
      // A second failure while the backup may still be draining — the
      // §4.5 corner where handed-back locks are re-suspended on the backup.
      const SimTime again =
          recover_at + kMillisecond + at_in(0, 3 * kMillisecond);
      plan.push_back({FaultKind::kFailPrimary, again, 0, 0, 0});
      plan.push_back(
          {FaultKind::kRecoverPrimary, again + 2 * kFuzzLease, 0, 0, 0});
    }
  };
  const auto add_server_crash = [&] {
    const SimTime fail_at = at_in(2 * kMillisecond, run / 2);
    const auto target = static_cast<std::uint32_t>(pick(2));
    plan.push_back({FaultKind::kServerFail, fail_at, 0, target, 0});
    plan.push_back({FaultKind::kServerRecover,
                    fail_at + 3 * kMillisecond + at_in(0, 2 * kFuzzLease),
                    0, target, 0});
  };
  const auto add_migration = [&] {
    // Shard across racks and move locks while they are hot. Half the
    // schedules add network chaos on top so re-homing is also exercised
    // under loss/duplication/reordering.
    w.racks = pick(2) ? 2 : 4;
    const int rehomes = static_cast<int>(1 + pick(3));
    for (int i = 0; i < rehomes; ++i) {
      plan.push_back({FaultKind::kRehome,
                      at_in(2 * kMillisecond, (run * 3) / 4), 0,
                      static_cast<std::uint32_t>(pick(16)),
                      static_cast<std::uint32_t>(pick(4))});
    }
    if (pick(2) != 0) {
      plan.push_back({FaultKind::kReallocate,
                      at_in(2 * kMillisecond, run / 2), 0,
                      static_cast<std::uint32_t>(pick(4)), 0});
    }
    if (pick(2) != 0) add_net_chaos();
  };

  const auto add_controller = [&] {
    // Self-driving control plane live during the run: the controller's
    // continuous reallocations race whatever else the plan throws at the
    // rack. Enough locks that the knapsack has real promote/demote
    // choices, and a small switch so admission stays contested.
    w.controller = 1;
    w.num_locks = static_cast<int>(4 + pick(8));
    w.queue_capacity = kCaps[pick(3)];  // 4/8/16: forces server overflow.
    if (pick(2) != 0) w.racks = 2;      // Exercise the re-home balancer.
    switch (pick(4)) {
      case 0:
        break;  // Controller alone on a clean fabric.
      case 1: {
        // Switch outage mid-migration: the recovery path must not
        // resurrect locks the controller had demoted (split-brain).
        const SimTime crash_at = at_in(2 * kMillisecond, run / 2);
        plan.push_back({FaultKind::kSwitchCrash, crash_at, 0, 0, 0});
        plan.push_back({FaultKind::kSwitchRestart,
                        crash_at + kMillisecond + at_in(0, 2 * kFuzzLease),
                        0, 0, 0});
        break;
      }
      case 2:
        add_server_crash();
        break;
      default:
        add_net_chaos();
        break;
    }
  };

  const auto add_deadlock = [&] {
    // Unordered lock sets + a deadlock policy: the policy must keep the
    // run both safe (oracle) and live (waits-for check, engines idle).
    w.unordered = 1;
    w.policy = static_cast<int>(1 + pick(3));  // no_wait/wait_die/wound_wait
    w.locks_per_txn = static_cast<int>(2 + pick(3));
    w.num_locks = static_cast<int>(2 + pick(5));
    w.shared_permille = pick(2) ? 0 : 300;
    if (pick(2) != 0) add_net_chaos();  // Abort protocol under chaos too.
  };

  switch (pick(9)) {
    case 0: break;  // Clean run: FIFO + liveness still checked.
    case 1: add_net_chaos(); break;
    case 2: add_partitions(); break;
    case 3: add_failover(); break;
    case 4: add_server_crash(); break;
    case 5: add_migration(); break;
    case 6: add_deadlock(); break;
    case 7: add_controller(); break;
    default:
      add_net_chaos();
      add_partitions();
      add_failover();
      break;
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at < b.at;
                   });
  return sched;
}

RunReport ScheduleFuzzer::RunSchedule(const Schedule& schedule,
                                      const FuzzOptions& options) {
  const WorkloadParams& w = schedule.workload;
  LockOracle oracle;
  WaitsForGraph waits;
  std::vector<NetLockSession*> raw_sessions;
  std::vector<std::vector<NodeId>> session_nodes;
  const int racks = std::clamp(w.racks, 1, 8);
  const bool unordered = w.unordered != 0;
  // The controller only makes sense over a real knapsack allocation;
  // deadlock-policy schedules force everything server-resident.
  const bool controller_on =
      w.controller != 0 && !unordered && w.policy == 0;
  // The seeded liveness bug disables the policy and stretches the lease
  // past the horizon, so an unordered schedule that deadlocks *stays*
  // deadlocked — the waits-for oracle must catch it.
  const DeadlockPolicy policy =
      options.bug_always_wait
          ? DeadlockPolicy::kNone
          : static_cast<DeadlockPolicy>(std::clamp(w.policy, 0, 3));
  const SimTime lease =
      options.bug_always_wait ? 10 * kSecond : kFuzzLease;

  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = std::max(1, w.machines);
  config.sessions_per_machine = std::max(1, w.sessions_per_machine);
  config.lock_servers = 2;
  config.num_racks = racks;
  config.lease = lease;
  config.lease_poll_interval = kMillisecond;
  config.client_retry_timeout = kMillisecond;
  config.client_max_retries = 16;
  config.txn_config.think_time = 5 * kMicrosecond;
  config.txn_config.preserve_workload_order = unordered;
  config.server_config.deadlock_policy = policy;
  config.seed = schedule.seed;
  config.switch_config.queue_capacity =
      std::max<std::uint32_t>(2, w.queue_capacity);
  config.switch_config.array_size = 512;
  config.switch_config.max_locks = 64;
  const int priorities = std::clamp(w.priorities, 1, 3);
  config.switch_config.num_priorities = static_cast<std::uint8_t>(priorities);
  if (priorities > 1) {
    config.priority_of = [priorities](int i) {
      return static_cast<Priority>(i % priorities);
    };
  }
  if (controller_on) {
    // Fuzz horizons are tens of milliseconds, so the controller runs at
    // fuzz scale: fast ticks, one observe-only window, short dwell. The
    // point is migrations racing the fault plan, not steady-state tuning.
    config.controller = true;
    config.controller_config.interval = 2 * kMillisecond;
    config.controller_config.warmup_ticks = 1;
    config.controller_config.min_dwell = 4 * kMillisecond;
    config.controller_config.migration_budget = 4;
    config.controller_config.rate_floor = 0.5;
  }

  MicroConfig micro;
  micro.num_locks = std::max(1, w.num_locks);
  micro.shared_fraction =
      static_cast<double>(std::clamp(w.shared_permille, 0, 1000)) / 1000.0;
  micro.locks_per_txn = static_cast<std::uint32_t>(
      std::max(1, w.locks_per_txn));
  if (unordered) {
    config.workload_factory = [micro](int) {
      return std::make_unique<UnorderedMicroWorkload>(micro);
    };
  } else {
    config.workload_factory = MicroFactory(micro);
  }

  const std::uint64_t bug_mod = options.bug_txn_mod;
  // Optional autopsy trail: client releases land on shard 0, each rack's
  // switch events on shard tag % shards (tags start at 1, so rack shards
  // never collide with the release shard when the recorder has >= racks+2
  // shards, as netlock_fuzz sizes it). The sim is single-threaded, so the
  // one-writer-per-shard contract holds trivially.
  FlightRecorder* const recorder = options.flight_recorder;
  Simulator* sim_ptr = nullptr;  // Set once the testbed exists.
  config.session_wrapper =
      [&](std::unique_ptr<LockSession> inner) -> std::unique_ptr<LockSession> {
    // Leaf nodes for the fault driver: a single-rack testbed hands out
    // plain NetLockSessions (also re-pointed by a standby failover); a
    // multi-rack one hands out ShardedSessions with one node per rack.
    std::vector<NodeId> nodes;
    if (racks == 1) {
      raw_sessions.push_back(static_cast<NetLockSession*>(inner.get()));
      nodes.push_back(inner->node());
    } else {
      auto* sharded_session = static_cast<ShardedSession*>(inner.get());
      for (int r = 0; r < sharded_session->num_racks(); ++r) {
        nodes.push_back(sharded_session->rack_session(r).node());
      }
    }
    session_nodes.push_back(std::move(nodes));
    auto wrapped = std::make_unique<OracleSession>(std::move(inner), oracle);
    wrapped->AttachWaitsFor(&waits);
    if (bug_mod != 0) {
      wrapped->set_suppress_release(
          [bug_mod](LockId, TxnId txn) { return txn % bug_mod == 3; });
    }
    if (recorder != nullptr) {
      wrapped->set_release_observer(
          [recorder, &sim_ptr](LockId lock, LockMode mode, TxnId txn) {
            recorder->Record(0, FlightRecorder::Op::kRelease, lock, mode,
                             txn, sim_ptr != nullptr ? sim_ptr->now() : 0);
          });
    }
    return wrapped;
  };

  Testbed testbed(config);
  sim_ptr = &testbed.sim();
  if (unordered || w.policy != 0) {
    // Deadlock-policy runs keep every lock server-resident (the switch
    // data plane has no mid-queue removal for wounds/cancels). Condition
    // on the schedule's fields, not the effective policy, so the seeded
    // always-wait bug run differs from the healthy run only in policy and
    // lease.
    Allocation all_server;
    for (LockId lock = 0;
         lock < static_cast<LockId>(micro.num_locks); ++lock) {
      all_server.server_only.push_back(lock);
    }
    testbed.sharded().InstallAllocation(all_server);
  } else {
    testbed.sharded().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
  }
  if (testbed.has_controller()) testbed.controller().Start();
  ControlPlane& control = testbed.netlock().control_plane();
  // Lease-aware exclusion: a partitioned holder's lease legitimately
  // expires and the switch regrants (Section 4.5) — not an overlap. The
  // slack absorbs grant-delivery skew between switch and client clocks.
  oracle.SetLease(lease - 200 * kMicrosecond,
                  [&sim = testbed.sim()] { return sim.now(); });
  waits.SetClock([&sim = testbed.sim()] { return sim.now(); });
  // The manager's abort observer keeps the exclusion oracle exact: a wound
  // drops the holder *before* the cascade grants the lock onward, so the
  // replacement grant is not an overlap. Die/no-wait aborts just purge the
  // FIFO admission.
  for (int r = 0; r < racks; ++r) {
    NetLockManager& rack = testbed.sharded().rack(r);
    const int rack_rec_shard =
        recorder != nullptr
            ? static_cast<int>((static_cast<std::uint64_t>(r) + 1) %
                               static_cast<std::uint64_t>(recorder->shards()))
            : 0;
    for (int s = 0; s < rack.num_servers(); ++s) {
      rack.server(s).set_abort_observer(
          [&oracle, recorder, rack_rec_shard, &sim = testbed.sim()](
              LockId lock, TxnId txn, AbortReason reason, NodeId) {
            if (reason == AbortReason::kWound) {
              oracle.OnWound(lock, txn);
            } else {
              oracle.OnAbort(lock, txn);
            }
            if (recorder != nullptr) {
              recorder->Record(rack_rec_shard, FlightRecorder::Op::kAbort,
                               lock, LockMode::kExclusive, txn, sim.now());
            }
          });
    }
  }

  std::unique_ptr<LockSwitch> standby;
  std::vector<NodeId> switch_nodes;
  for (int r = 0; r < racks; ++r) {
    switch_nodes.push_back(testbed.sharded().rack(r).lock_switch().node());
  }
  // Standby switches are a single-rack protocol (the control plane
  // re-points NetLockSessions); multi-rack plans fail the switch in place.
  // The chain replicates the allocation but not migrations, so it needs a
  // rack without the controller; it takes precedence over a cold backup.
  const bool hot = racks == 1 && !controller_on && schedule.plan.NeedsChain();
  if (hot || (racks == 1 && schedule.plan.NeedsBackup())) {
    standby = std::make_unique<LockSwitch>(testbed.net(),
                                           config.switch_config);
    for (NetLockSession* session : raw_sessions) {
      testbed.net().SetLatency(session->node(), standby->node(),
                               kClientSwitchLatency);
    }
    for (int i = 0; i < testbed.netlock().num_servers(); ++i) {
      testbed.net().SetLatency(standby->node(),
                               testbed.netlock().server(i).node(),
                               kSwitchServerLatency);
    }
    if (hot) {
      testbed.net().SetLatency(testbed.netlock().lock_switch().node(),
                               standby->node(), kSwitchServerLatency);
    }
    control.AttachStandby(*standby, hot ? ControlPlane::Standby::kHot
                                        : ControlPlane::Standby::kCold);
    for (NetLockSession* session : raw_sessions) {
      control.RegisterSession(session);
    }
    switch_nodes.push_back(standby->node());
  }

  // Observe every switch grant: the digest makes replays comparable
  // byte-for-byte; benign plans additionally feed the FIFO oracle (faults
  // may reorder grants). Controller migrations legitimately reorder grants
  // across the pause/drain/forward boundary, so FIFO checking is off for
  // them just like for explicit migration plans.
  const bool fifo = schedule.plan.Benign() && !controller_on;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto observe = [&](LockSwitch& sw, std::uint64_t tag) {
    const int rec_shard =
        recorder != nullptr
            ? static_cast<int>(
                  tag % static_cast<std::uint64_t>(recorder->shards()))
            : 0;
    sw.set_grant_observer([&oracle, &digest, fifo, tag, recorder, rec_shard,
                           &sim = testbed.sim()](
                              LockId lock, TxnId txn, LockMode mode,
                              NodeId node) {
      digest = Fold(digest, tag);
      digest = Fold(digest, lock);
      digest = Fold(digest, txn);
      digest = Fold(digest, static_cast<std::uint64_t>(mode));
      if (fifo) oracle.OnSwitchGrant(lock, txn, mode);
      if (recorder != nullptr) {
        recorder->Record(rec_shard, FlightRecorder::Op::kGrant, lock, mode,
                         txn, sim.now(), static_cast<std::uint32_t>(node));
      }
    });
    if (fifo || recorder != nullptr) {
      sw.set_queue_observer([&oracle, fifo, recorder, rec_shard,
                             &sim = testbed.sim()](LockId lock, TxnId txn,
                                                   LockMode mode,
                                                   Priority cls,
                                                   bool overflow) {
        if (fifo) oracle.OnSwitchAccept(lock, txn, mode, cls, overflow);
        if (recorder != nullptr) {
          recorder->Record(rec_shard, FlightRecorder::Op::kAccept, lock,
                           mode, txn, sim.now());
        }
      });
    }
  };
  for (int r = 0; r < racks; ++r) {
    observe(testbed.sharded().rack(r).lock_switch(),
            static_cast<std::uint64_t>(r) + 1);
  }
  if (standby) observe(*standby, racks + 1);

  FaultDriver driver{testbed,
                     session_nodes,
                     switch_nodes,
                     control,
                     hot,
                     testbed.netlock().num_servers(),
                     config.client_machines,
                     static_cast<int>(micro.num_locks),
                     config.switch_config.queue_capacity,
                     LinkFaults{},
                     false};
  const SimTime horizon = std::max<SimTime>(w.run_time, 5 * kMillisecond);
  for (const FaultAction& action : schedule.plan.actions) {
    if (action.at >= horizon) continue;  // Sanitization covers the rest.
    SimTime duration = action.duration;
    if (action.kind == FaultKind::kLeaseExpiryBurst) {
      duration = std::max<SimTime>(duration, (5 * kFuzzLease) / 2);
    }
    testbed.sim().Schedule(action.at,
                           [&driver, action] { driver.Fire(action, true); });
    if (TimedFault(action.kind) && duration > 0 &&
        action.at + duration < horizon) {
      testbed.sim().Schedule(action.at + duration, [&driver, action] {
        driver.Fire(action, false);
      });
    }
  }

  // Waits-for liveness scans run *during* the run (benign plans only): a
  // deadlock is masked later — acquire timeouts eventually 2PL-abort the
  // wedged transactions and the final state looks clean — so only an
  // in-flight scan catches it. The first stuck cycle found is the
  // evidence; a final scan below covers the settle tail.
  const SimTime liveness_window = (5 * kFuzzLease) / 2;
  std::uint64_t stuck_cycles = 0;
  std::string first_cycle;
  const auto scan_cycles = [&] {
    if (stuck_cycles != 0) return;  // First hit is enough.
    const std::string cycle = waits.FindStuckCycle(liveness_window);
    if (!cycle.empty()) {
      ++stuck_cycles;
      first_cycle = cycle;
    }
  };
  if (schedule.plan.Benign()) {
    for (SimTime t = liveness_window; t < horizon + kSettleBudget;
         t += kFuzzLease) {
      testbed.sim().Schedule(t, scan_cycles);
    }
  }

  testbed.StartEngines();
  testbed.sim().RunUntil(horizon);
  for (int i = 0; i < testbed.num_engines(); ++i) {
    testbed.engine(i).Stop();
  }

  // Sanitize: pristine fabric, everything recovered — whatever liveness
  // debt the faults created must now clear within the settle budget.
  testbed.net().ClearFaults();
  driver.current = LinkFaults{};
  if (control.switch_failed() && !hot) control.RecoverSwitch();
  for (int i = 0; i < driver.num_servers; ++i) {
    if (!control.ServerAlive(i)) control.RecoverServer(i);
  }

  const auto settled = [&] {
    for (int i = 0; i < testbed.num_engines(); ++i) {
      if (!testbed.engine(i).idle()) return false;
    }
    // A drained backup goes cold; a promoted chain tail keeps serving.
    return hot || !control.standby_active();
  };
  const SimTime settle_deadline = testbed.sim().now() + kSettleBudget;
  while (!settled() && testbed.sim().now() < settle_deadline) {
    testbed.sim().RunUntil(testbed.sim().now() + 2 * kMillisecond);
  }

  RunReport report;
  report.grants = oracle.grants();
  report.violations = oracle.violations();
  report.fifo_violations = oracle.fifo_violations();
  for (int i = 0; i < testbed.num_engines(); ++i) {
    if (!testbed.engine(i).idle()) {
      report.engines_idle = false;
      report.problems.push_back("liveness: engine " + std::to_string(i) +
                                " never went idle");
    }
  }
  if (!hot && control.standby_active()) {
    report.problems.push_back("liveness: backup switch never drained");
  }
  // Waits-for liveness: on a benign plan every wait should clear within a
  // couple of leases (the lease sweep breaks even policy-less deadlocks);
  // a cycle all of whose edges are older than that is a real deadlock the
  // manager failed to break. Faulty plans can strand waiters legitimately
  // (lost grants ride retry timers), so the check is benign-only.
  if (schedule.plan.Benign()) {
    scan_cycles();  // Settle tail; no-op if an in-run scan already hit.
    if (stuck_cycles != 0) {
      report.stuck_cycles = stuck_cycles;
      report.problems.push_back("deadlock: " + first_cycle);
    }
  }
  const std::vector<std::string>& log = oracle.violation_log();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i == 8) {
      report.problems.push_back(
          "... (" + std::to_string(log.size() - 8) + " more)");
      break;
    }
    report.problems.push_back("oracle: " + log[i]);
  }
  if (report.violations == 0 && oracle.TotalHolders() != 0) {
    report.problems.push_back(
        "leak: " + std::to_string(oracle.TotalHolders()) +
        " grants never released");
  }
  if (report.grants == 0) {
    report.problems.push_back("no grants issued");
  }
  digest = Fold(digest, testbed.net().packets_sent());
  digest = Fold(digest, testbed.net().packets_dropped());
  digest = Fold(digest, testbed.net().packets_duplicated());
  digest = Fold(digest, testbed.net().packets_reordered());
  digest = Fold(digest, report.grants);
  report.digest = digest;
  report.ok = report.problems.empty();
  return report;
}

Schedule ScheduleFuzzer::Shrink(Schedule failing, const FuzzOptions& options,
                                int max_runs) {
  int budget = max_runs;
  const auto still_fails = [&](const Schedule& candidate) {
    if (budget <= 0) return false;
    --budget;
    return !RunSchedule(candidate, options).ok;
  };

  // ddmin over the fault timeline: repeatedly try dropping chunks of
  // actions, halving the chunk size when nothing can be dropped.
  std::size_t granularity = 2;
  while (!failing.plan.actions.empty() && budget > 0) {
    const std::size_t n = failing.plan.actions.size();
    const std::size_t chunk =
        std::max<std::size_t>(1, (n + granularity - 1) / granularity);
    bool reduced = false;
    for (std::size_t start = 0; start < n && budget > 0; start += chunk) {
      Schedule candidate = failing;
      const auto begin =
          candidate.plan.actions.begin() + static_cast<std::ptrdiff_t>(start);
      const auto end = candidate.plan.actions.begin() +
                       static_cast<std::ptrdiff_t>(std::min(start + chunk, n));
      candidate.plan.actions.erase(begin, end);
      if (still_fails(candidate)) {
        failing = std::move(candidate);
        reduced = true;
        break;
      }
    }
    if (reduced) {
      granularity = 2;
      continue;
    }
    if (chunk <= 1) break;
    granularity = std::min(granularity * 2, n);
  }

  // Greedy workload reduction to a fixpoint.
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    const auto attempt = [&](auto mutate) {
      Schedule candidate = failing;
      mutate(candidate.workload);
      if (candidate.workload == failing.workload) return;
      if (still_fails(candidate)) {
        failing = std::move(candidate);
        progress = true;
      }
    };
    attempt([](WorkloadParams& wp) { wp.racks = 1; });
    attempt([](WorkloadParams& wp) { wp.machines = 1; });
    attempt([](WorkloadParams& wp) { wp.sessions_per_machine = 1; });
    attempt([](WorkloadParams& wp) { wp.num_locks = 1; });
    attempt([](WorkloadParams& wp) { wp.locks_per_txn = 1; });
    attempt([](WorkloadParams& wp) { wp.shared_permille = 0; });
    attempt([](WorkloadParams& wp) { wp.controller = 0; });
    attempt([](WorkloadParams& wp) {
      if (wp.run_time > 10 * kMillisecond) wp.run_time /= 2;
    });
  }
  return failing;
}

std::string ScheduleFuzzer::ReplayLine(const Schedule& schedule) {
  return "netlock_fuzz --seed=" + std::to_string(schedule.seed) +
         " --plan='" + schedule.SerializeParams() + "'";
}

}  // namespace netlock::testing
