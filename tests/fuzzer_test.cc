// Schedule fuzzer tests: serialization round-trips, clean schedules pass
// every oracle, adversarial schedules replay byte-identically, and a
// deliberately seeded bug is caught and shrunk to a minimal replayable
// schedule.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "testing/fault_plan.h"
#include "testing/fuzzer.h"

namespace netlock {
namespace {

using testing::FaultAction;
using testing::FaultKind;
using testing::FaultPlan;
using testing::FuzzOptions;
using testing::RunReport;
using testing::Schedule;
using testing::ScheduleFuzzer;

TEST(FaultPlanTest, SerializeParseRoundTrip) {
  FaultPlan plan;
  plan.actions = {
      {FaultKind::kLoss, 1000, 500, 0, 80},
      {FaultKind::kClientPartition, 2000, 3000, 1, 0},
      {FaultKind::kFailPrimary, 4000, 0, 0, 0},
      {FaultKind::kRecoverPrimary, 9000, 0, 0, 0},
      {FaultKind::kServerFail, 12000, 0, 1, 0},
  };
  FaultPlan parsed;
  ASSERT_TRUE(FaultPlan::Parse(plan.Serialize(), &parsed));
  EXPECT_EQ(parsed, plan);
  // Migration actions (appended kinds) round-trip too.
  FaultPlan migration;
  migration.actions = {
      {FaultKind::kReallocate, 5000, 0, 1, 0},
      {FaultKind::kRehome, 7000, 0, 3, 1},
  };
  ASSERT_TRUE(FaultPlan::Parse(migration.Serialize(), &parsed));
  EXPECT_EQ(parsed, migration);
  // Empty plans round-trip too.
  ASSERT_TRUE(FaultPlan::Parse("", &parsed));
  EXPECT_TRUE(parsed.actions.empty());
  // Garbage is rejected.
  EXPECT_FALSE(FaultPlan::Parse("nonsense:1:2", &parsed));
}

TEST(FaultPlanTest, Classification) {
  FaultPlan clean;
  EXPECT_TRUE(clean.Benign());
  EXPECT_FALSE(clean.PerturbsDelivery());
  EXPECT_FALSE(clean.NeedsBackup());

  FaultPlan failover;
  failover.actions = {{FaultKind::kFailPrimary, 1000, 0, 0, 0}};
  EXPECT_TRUE(failover.NeedsBackup());
  EXPECT_FALSE(failover.PerturbsDelivery());
  EXPECT_FALSE(failover.Benign());

  FaultPlan lossy;
  lossy.actions = {{FaultKind::kLoss, 0, 0, 0, 100}};
  EXPECT_TRUE(lossy.PerturbsDelivery());
  EXPECT_FALSE(lossy.Benign());

  // Migration drains shift grants server-side, so switch-side FIFO
  // checking is off even though packets are never dropped or reordered.
  FaultPlan migration;
  migration.actions = {{FaultKind::kRehome, 1000, 0, 2, 1}};
  EXPECT_FALSE(migration.Benign());
  EXPECT_FALSE(migration.PerturbsDelivery());
  EXPECT_FALSE(migration.NeedsBackup());
}

TEST(ScheduleFuzzerTest, GeneratedSchedulesRoundTripAndAreDistinct) {
  ScheduleFuzzer fuzzer(1);
  int with_faults = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Schedule sched = fuzzer.Generate(i);
    Schedule parsed;
    ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed)) << i;
    EXPECT_EQ(parsed, sched) << "round-trip mismatch at index " << i;
    // Generation is a pure function of (master seed, index).
    EXPECT_EQ(fuzzer.Generate(i), sched);
    if (!sched.plan.actions.empty()) ++with_faults;
  }
  EXPECT_GT(with_faults, 8);  // The flavor mix produces real fault plans.
  // Different indices give different schedules.
  EXPECT_NE(fuzzer.Generate(0), fuzzer.Generate(1));
}

TEST(ScheduleFuzzerTest, CleanScheduleSatisfiesAllOracles) {
  Schedule sched;
  sched.seed = 11;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 3;
  sched.workload.queue_capacity = 8;  // Forces the overflow path.
  sched.workload.run_time = 20 * kMillisecond;
  const RunReport report = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GT(report.grants, 100u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.fifo_violations, 0u);
}

TEST(ScheduleFuzzerTest, AdversarialScheduleReplaysByteIdentically) {
  Schedule sched;
  sched.seed = 29;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 4;
  sched.workload.queue_capacity = 16;
  sched.workload.run_time = 25 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kDuplicate, kMillisecond, 0, 0, 200},
      {FaultKind::kReorder, 2 * kMillisecond, 0, 0, 300},
      {FaultKind::kLoss, 3 * kMillisecond, 10 * kMillisecond, 0, 80},
      {FaultKind::kClientPartition, 8 * kMillisecond, 4 * kMillisecond, 0,
       0},
  };
  const RunReport first = ScheduleFuzzer::RunSchedule(sched);
  const RunReport second = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.problems, second.problems);
  EXPECT_EQ(first.Summary(), second.Summary());
  // Safety and liveness hold under duplication+reorder+loss+partition.
  EXPECT_TRUE(first.ok) << first.Summary();
  // A different seed takes a different trajectory.
  Schedule other = sched;
  other.seed = 31;
  EXPECT_NE(ScheduleFuzzer::RunSchedule(other).digest, first.digest);
}

TEST(ScheduleFuzzerTest, FailoverScheduleStaysSafeAndLive) {
  Schedule sched;
  sched.seed = 47;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 4;
  sched.workload.queue_capacity = 64;
  sched.workload.run_time = 35 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kFailPrimary, 5 * kMillisecond, 0, 0, 0},
      {FaultKind::kRecoverPrimary, 15 * kMillisecond, 0, 0, 0},
      {FaultKind::kFailPrimary, 17 * kMillisecond, 0, 0, 0},
      {FaultKind::kRecoverPrimary, 28 * kMillisecond, 0, 0, 0},
  };
  const RunReport report = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GT(report.grants, 0u);
  EXPECT_EQ(ScheduleFuzzer::RunSchedule(sched).digest, report.digest);
}

TEST(ScheduleFuzzerTest, MigrationScheduleStaysSafeAndReplays) {
  // Two racks; re-home hot locks mid-run (some while packets are being
  // duplicated), plus one mid-run reallocation. Mutual exclusion and
  // liveness must survive, and the run must replay byte-identically.
  Schedule sched;
  sched.seed = 61;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 6;
  sched.workload.queue_capacity = 16;
  sched.workload.racks = 2;
  sched.workload.run_time = 30 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kRehome, 4 * kMillisecond, 0, 1, 1},
      {FaultKind::kDuplicate, 6 * kMillisecond, 8 * kMillisecond, 0, 150},
      {FaultKind::kRehome, 9 * kMillisecond, 0, 3, 0},
      {FaultKind::kReallocate, 14 * kMillisecond, 0, 0, 0},
      {FaultKind::kRehome, 18 * kMillisecond, 0, 1, 0},  // Move it back.
  };
  // Round-trip including the racks field.
  Schedule parsed;
  ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed));
  EXPECT_EQ(parsed, sched);

  const RunReport first = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(first.ok) << first.Summary();
  EXPECT_GT(first.grants, 100u);
  EXPECT_EQ(first.violations, 0u);
  const RunReport second = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.Summary(), second.Summary());
}

TEST(ScheduleFuzzerTest, SingleRackReallocateActionStaysSafe) {
  // kReallocate on a single-rack schedule drives the control plane's
  // remove-then-add migration sequencing under a tiny switch.
  Schedule sched;
  sched.seed = 17;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 4;
  sched.workload.queue_capacity = 8;
  sched.workload.run_time = 25 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kReallocate, 8 * kMillisecond, 0, 0, 0},
      {FaultKind::kReallocate, 16 * kMillisecond, 0, 0, 0},
  };
  const RunReport report = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GT(report.grants, 100u);
  EXPECT_EQ(ScheduleFuzzer::RunSchedule(sched).digest, report.digest);
}

TEST(ScheduleFuzzerTest, ControllerScheduleStaysSafeUnderSwitchCrash) {
  // The self-driving controller migrates locks continuously while the
  // plan crashes and restarts the switch — the split-brain corner the
  // per-lock install commit exists for. Safety and liveness must hold,
  // and the run must replay byte-identically (the controller rides the
  // same deterministic sim clock as everything else).
  Schedule sched;
  sched.seed = 29;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 8;
  sched.workload.queue_capacity = 8;
  sched.workload.controller = 1;
  sched.workload.run_time = 35 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kSwitchCrash, 9 * kMillisecond, 0, 0, 0},
      {FaultKind::kSwitchRestart, 14 * kMillisecond, 0, 0, 0},
  };
  // Round-trip including the new ctrl key.
  Schedule parsed;
  ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed));
  EXPECT_EQ(parsed, sched);

  const RunReport first = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(first.ok) << first.Summary();
  EXPECT_GT(first.grants, 100u);
  EXPECT_EQ(first.violations, 0u);
  const RunReport second = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.Summary(), second.Summary());
}

TEST(ScheduleFuzzerTest, SeededBugIsCaughtAndShrunkToMinimalSchedule) {
  // The test-only hook hides every release with txn % 7 == 3 from the
  // oracle, so the next grant on the same lock is a genuine overlap as far
  // as the checker can tell. The fuzzer must (a) flag it and (b) shrink
  // the schedule while preserving the failure.
  ScheduleFuzzer fuzzer(3);
  FuzzOptions options;
  options.bug_txn_mod = 7;

  // Find a failing generated schedule (the bug fires almost immediately on
  // any schedule with lock reuse, so the first few indices suffice).
  Schedule failing;
  bool found = false;
  for (std::uint64_t i = 0; i < 8 && !found; ++i) {
    failing = fuzzer.Generate(i);
    const RunReport report = ScheduleFuzzer::RunSchedule(failing, options);
    found = !report.ok && report.violations > 0;
  }
  ASSERT_TRUE(found) << "seeded bug never fired";

  const Schedule shrunk =
      ScheduleFuzzer::Shrink(failing, options, /*max_runs=*/48);
  const RunReport report = ScheduleFuzzer::RunSchedule(shrunk, options);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(report.violations, 0u);
  // The shrinker strips the fault plan (the bug needs no faults) and
  // reduces the workload.
  EXPECT_TRUE(shrunk.plan.actions.empty())
      << "plan not minimal: " << shrunk.plan.Serialize();
  EXPECT_EQ(shrunk.workload.machines, 1);
  EXPECT_EQ(shrunk.workload.sessions_per_machine, 1);
  EXPECT_EQ(shrunk.workload.num_locks, 1);

  // The replay line round-trips to the exact same schedule.
  const std::string line = ScheduleFuzzer::ReplayLine(shrunk);
  EXPECT_NE(line.find("--seed="), std::string::npos);
  EXPECT_NE(line.find("--plan="), std::string::npos);
  Schedule replayed;
  ASSERT_TRUE(Schedule::Parse(shrunk.Serialize(), &replayed));
  EXPECT_EQ(replayed, shrunk);
  EXPECT_EQ(ScheduleFuzzer::RunSchedule(replayed, options).digest,
            report.digest);
  // Without the seeded bug the shrunk schedule is healthy: the fuzzer
  // found the planted defect, not a real one.
  EXPECT_TRUE(ScheduleFuzzer::RunSchedule(shrunk).ok);
}

TEST(ScheduleFuzzerTest, UnorderedPolicySchedulesAreCleanAndRoundTrip) {
  // The deadlock-prone flavor: unsorted lock sets over a tiny hot space,
  // resolved by each deadlock policy in turn. Safety, liveness (waits-for
  // cycle check), and FIFO must all hold, and the new unord/policy keys
  // must survive serialization.
  for (int policy = 1; policy <= 3; ++policy) {
    for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
      Schedule sched;
      sched.seed = seed;
      sched.workload.machines = 3;
      sched.workload.sessions_per_machine = 1;
      sched.workload.num_locks = 4;
      sched.workload.queue_capacity = 256;
      sched.workload.shared_permille = 300;
      sched.workload.locks_per_txn = 3;
      sched.workload.unordered = 1;
      sched.workload.policy = policy;
      sched.workload.run_time = 25 * kMillisecond;
      Schedule parsed;
      ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed));
      EXPECT_EQ(parsed, sched);
      const RunReport report = ScheduleFuzzer::RunSchedule(sched);
      EXPECT_TRUE(report.ok) << "policy " << policy << " seed " << seed
                             << " failed:\n"
                             << report.Summary();
      EXPECT_EQ(report.violations, 0u);
      EXPECT_EQ(report.stuck_cycles, 0u);
      EXPECT_GT(report.grants, 0u);
    }
  }
}

TEST(ScheduleFuzzerTest, SeededAlwaysWaitDeadlockIsCaughtByWaitsForOracle) {
  // bug_always_wait runs the schedule with the policy forced off and the
  // lease stretched past the horizon: three clients acquiring two of three
  // locks in shuffled order wedge almost immediately, and nothing ever
  // breaks the cycle. The waits-for oracle must report a stuck cycle —
  // proof the liveness check catches real deadlocks, not just quiet runs.
  Schedule sched;
  sched.seed = 5;
  sched.workload.machines = 3;
  sched.workload.sessions_per_machine = 1;
  sched.workload.num_locks = 3;
  sched.workload.queue_capacity = 64;
  sched.workload.shared_permille = 0;
  sched.workload.locks_per_txn = 2;
  sched.workload.unordered = 1;
  sched.workload.policy = 3;  // Applied only in the healthy control run.
  sched.workload.run_time = 20 * kMillisecond;

  FuzzOptions bug;
  bug.bug_always_wait = true;
  const RunReport buggy = ScheduleFuzzer::RunSchedule(sched, bug);
  EXPECT_FALSE(buggy.ok);
  EXPECT_GT(buggy.stuck_cycles, 0u) << buggy.Summary();

  // The identical schedule with wound-wait actually applied is healthy:
  // the planted liveness defect, not the workload, caused the failure.
  const RunReport healthy = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(healthy.ok) << healthy.Summary();
  EXPECT_EQ(healthy.stuck_cycles, 0u);
}

TEST(FaultPlanTest, ChainHeadCrashNeedsAChain) {
  FaultPlan chain;
  chain.actions = {{FaultKind::kFailHead, 1000, 0, 0, 0}};
  EXPECT_TRUE(chain.NeedsChain());
  EXPECT_FALSE(chain.NeedsBackup());
  EXPECT_FALSE(chain.Benign());
  FaultPlan parsed;
  ASSERT_TRUE(FaultPlan::Parse("failhead:1000:0:0:0", &parsed));
  EXPECT_EQ(parsed, chain);
  FaultPlan backup;
  backup.actions = {{FaultKind::kFailPrimary, 1000, 0, 0, 0}};
  EXPECT_FALSE(backup.NeedsChain());
}

// Replays a schedule exactly as `netlock_fuzz --seed=SEED --plan=PARAMS`.
RunReport Replay(std::uint64_t seed, std::string_view params) {
  Schedule sched;
  sched.seed = seed;
  EXPECT_TRUE(Schedule::Parse(params, &sched));
  return ScheduleFuzzer::RunSchedule(sched);
}

// Fuzz find: a server-owned acquire that reached the home server just after
// MoveLockToSwitch handed the lock to the switch re-created server
// ownership; server and switch then both granted lock 2.
TEST(FuzzFindTest, ServerAcquireRacingMoveToSwitch) {
  const RunReport report = Replay(
      10240499549820507791ull,
      "m=3;spm=3;locks=4;cap=8;shared=0;lpt=2;racks=1;unord=0;policy=0;"
      "ctrl=1;run=10000000;plan=");
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Fuzz find: the controller moved lock 0 out of a just-restarted switch
// while a grant from before the crash was still inside its lease.
TEST(FuzzFindTest, MigrationOutOfRestartedSwitchWaitsForGrace) {
  const RunReport report = Replay(
      13755867275257657699ull,
      "m=3;spm=3;locks=10;cap=4;shared=0;lpt=2;racks=1;unord=0;policy=0;"
      "ctrl=1;run=10000000;plan=downsw:7696029:0:0:0,upsw:14880851:0:0:0");
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Fuzz find: a re-home staged a lock on a switch that was down and then
// restarted (the process aborted activating the wiped entry); run longer,
// the source rack moved a re-homed lock back onto its own switch (the
// process aborted re-homing it there again).
TEST(FuzzFindTest, RehomeAcrossTargetSwitchRestart) {
  for (const char* run : {"10000000", "46000000"}) {
    const RunReport report = Replay(
        613874754775496721ull,
        std::string("m=1;spm=1;locks=4;cap=16;shared=0;lpt=1;racks=2;"
                    "unord=0;policy=0;ctrl=1;run=") +
            run + ";plan=downsw:5403468:0:0:0,upsw:11420123:0:0:0");
    EXPECT_TRUE(report.ok) << "run=" << run << " " << report.Summary();
  }
}

// Fuzz find: when the crashed server recovered, an acquire queued at the
// substitute's core re-created ownership of a lock the substitute had just
// handed back, and granted it beside the substitute's last holder.
TEST(FuzzFindTest, LateAcquireAtSubstituteAfterServerRecovery) {
  const RunReport report = Replay(
      14408843416990279343ull,
      "m=3;spm=3;locks=4;cap=8;shared=0;lpt=1;racks=1;unord=0;policy=0;"
      "ctrl=0;run=20500000;plan=failsrv:6907716:0:1:0,"
      "recsrv:19814229:0:1:0");
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Fuzz find: the controller moved a lock to the switch while the lock's
// crashed server still had a live grant out; the switch granted it again.
TEST(FuzzFindTest, MoveToSwitchAfterServerCrashWaitsForGrace) {
  const RunReport report = Replay(
      11912243840874113951ull,
      "m=2;spm=3;locks=7;cap=4;shared=0;lpt=2;racks=1;unord=0;policy=0;"
      "ctrl=1;run=10000000;plan=failsrv:7626291:0:1:0");
  EXPECT_TRUE(report.ok) << report.Summary();
}

// A generated chain schedule: the head crashes under client-side
// reordering, duplication and jitter; the promoted tail keeps every grant.
TEST(ScheduleFuzzerTest, ChainHeadCrashStaysSafeAndReplays) {
  const std::string params =
      "m=1;spm=3;locks=6;cap=4;shared=0;lpt=2;racks=1;unord=0;policy=0;"
      "ctrl=0;run=25000000;plan=jitter:7643504:0:0:608,"
      "reorder:7809049:9720400:0:313,failhead:8568895:0:0:0,"
      "dup:8886885:0:0:127";
  const RunReport first = Replay(15577060265091414427ull, params);
  EXPECT_TRUE(first.ok) << first.Summary();
  EXPECT_GT(first.grants, 0u);
  EXPECT_EQ(Replay(15577060265091414427ull, params).digest, first.digest);
}

// Priority classes: "prio=N" puts N classes on the switch and spreads the
// clients over them; an older replay line without the token runs one.
TEST(ScheduleFuzzerTest, PriorityTokenRoundTripsAndDefaultsToOne) {
  Schedule sched;
  ASSERT_TRUE(Schedule::Parse(
      "m=2;spm=2;locks=4;cap=8;shared=0;lpt=1;racks=1;unord=0;policy=0;"
      "ctrl=0;run=10000000;plan=",
      &sched));
  EXPECT_EQ(sched.workload.priorities, 1);
  sched.workload.priorities = 3;
  Schedule parsed;
  ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed));
  EXPECT_EQ(parsed, sched);
  EXPECT_NE(sched.Serialize().find(";prio=3;"), std::string::npos);
}

// Two classes on overflow-sized regions (cap=8 over four locks): class
// rings overflow into q2 and drain back through the kQueueEmpty handshake,
// with exclusive grants FIFO within each class.
TEST(PriorityFuzzTest, OverflowSizedClassesDrainAndStayFifoPerClass) {
  const std::string params =
      "m=3;spm=3;locks=4;cap=8;shared=300;lpt=2;racks=1;unord=0;policy=0;"
      "ctrl=0;prio=2;run=20000000;plan=";
  const RunReport first = Replay(101, params);
  EXPECT_TRUE(first.ok) << first.Summary();
  EXPECT_GT(first.grants, 0u);
  EXPECT_EQ(Replay(101, params).digest, first.digest);
}

// Three classes across an in-place switch crash and restart.
TEST(PriorityFuzzTest, SwitchRestartWithThreeClasses) {
  const RunReport report = Replay(
      29,
      "m=2;spm=3;locks=6;cap=8;shared=300;lpt=2;racks=1;unord=0;policy=0;"
      "ctrl=0;prio=3;run=30000000;plan=downsw:9000000:0:0:0,"
      "upsw:14000000:0:0:0");
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Two classes through a cold-backup failover: the backup installs every
// lock suspended and activates each one after the lease wait.
TEST(PriorityFuzzTest, BackupFailoverWithTwoClasses) {
  const RunReport report = Replay(
      29,
      "m=2;spm=3;locks=6;cap=4;shared=300;lpt=2;racks=1;unord=0;policy=0;"
      "ctrl=0;prio=2;run=30000000;plan=failsw:9000000:0:0:0,"
      "recsw:11000000:0:0:0");
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST(ScheduleFuzzerTest, GeneratedSweepIsCleanOnTheSeedTree) {
  // A miniature version of the CI fuzz-smoke job: every generated
  // schedule must satisfy safety, FIFO (when applicable), and liveness.
  ScheduleFuzzer fuzzer(2026);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const Schedule sched = fuzzer.Generate(i);
    const RunReport report = ScheduleFuzzer::RunSchedule(sched);
    EXPECT_TRUE(report.ok)
        << "schedule " << i << " failed:\n"
        << report.Summary() << "\nreplay: " << ScheduleFuzzer::ReplayLine(sched);
  }
}

}  // namespace
}  // namespace netlock
