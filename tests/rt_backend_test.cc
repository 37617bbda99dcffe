// Real-time backend tests: safety of the multicore grant stream (oracle
// replay over the linearized event log) and cross-backend equivalence (the
// same workload on the simulator and the real-time backend must produce the
// same grant counts — the protocol core is compiled once, so divergence
// means a substrate bug).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/sim_context.h"
#include "harness/backend.h"
#include "rt/rt_lock_service.h"
#include "server/lock_server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "testing/lock_oracle.h"
#include "testing/rt_replay.h"
#include "workload/micro.h"

namespace netlock {
namespace {

MicroConfig ContendedConfig() {
  MicroConfig workload;
  workload.num_locks = 64;  // Small space -> heavy cross-core contention.
  workload.locks_per_txn = 2;
  workload.zipf_alpha = 0.99;
  workload.shared_fraction = 0.2;
  return workload;
}

BackendRunConfig SmallRun() {
  BackendRunConfig config;
  config.workload = ContendedConfig();
  config.seed = 7;
  config.sessions = 8;
  config.txns_per_session = 250;
  config.rt_cores = 2;
  config.rt_client_threads = 2;
  return config;
}

TEST(RtBackendTest, ParseBackendKind) {
  BackendKind kind = BackendKind::kSim;
  EXPECT_TRUE(ParseBackendKind("rt", &kind));
  EXPECT_EQ(kind, BackendKind::kRt);
  EXPECT_TRUE(ParseBackendKind("sim", &kind));
  EXPECT_EQ(kind, BackendKind::kSim);
  kind = BackendKind::kRt;
  EXPECT_FALSE(ParseBackendKind("bogus", &kind));
  EXPECT_EQ(kind, BackendKind::kRt);  // Untouched on failure.
}

TEST(RtBackendTest, FixedCountRunCompletesAndDrains) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  const BackendRunResult result =
      RunMicroFixedCount(BackendKind::kRt, config);
  const std::uint64_t expected_commits =
      static_cast<std::uint64_t>(config.sessions) * config.txns_per_session;
  EXPECT_EQ(result.commits, expected_commits);
  // Every recorded acquire was granted exactly once and nothing is left
  // queued. (Grants per txn vary between 1 and locks_per_txn because
  // NormalizeTxn dedups same-lock draws.)
  EXPECT_EQ(result.service_grants, result.metrics.lock_requests);
  EXPECT_GE(result.service_grants, expected_commits);
  EXPECT_LE(result.service_grants,
            expected_commits * config.workload.locks_per_txn);
  EXPECT_EQ(result.residual_queue_depth, 0u);
}

TEST(RtBackendTest, OracleHoldsOverMulticoreGrantStream) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  config.rt_cores = 4;  // More cores -> more cross-core interleaving.
  config.rt_client_threads = 4;
  config.rt_record_events = true;
  const BackendRunResult result =
      RunMicroFixedCount(BackendKind::kRt, config);
  ASSERT_FALSE(result.events.empty());

  testing::LockOracle oracle;
  testing::ReplayRtEventsThroughOracle(result.events, oracle);
  EXPECT_EQ(oracle.violations(), 0u)
      << (oracle.violation_log().empty() ? "" : oracle.violation_log()[0]);
  EXPECT_EQ(oracle.fifo_violations(), 0u);
  EXPECT_EQ(oracle.grants(), result.service_grants);
  EXPECT_EQ(oracle.TotalHolders(), 0u);  // Fully drained.
}

TEST(RtBackendTest, SimAndRtBackendsAgreeOnGrantCounts) {
  BackendRunConfig config = SmallRun();
  config.txns_per_session = 150;

  SimContext sim_context;
  config.context = &sim_context;
  const BackendRunResult sim = RunMicroFixedCount(BackendKind::kSim, config);

  SimContext rt_context;
  config.context = &rt_context;
  const BackendRunResult rt = RunMicroFixedCount(BackendKind::kRt, config);

  // Same per-session request streams, same protocol core: the totals must
  // match exactly even though the rt interleaving is nondeterministic.
  EXPECT_EQ(sim.commits, rt.commits);
  EXPECT_EQ(sim.service_grants, rt.service_grants);
  EXPECT_EQ(sim.metrics.lock_requests, rt.metrics.lock_requests);
  EXPECT_EQ(sim.residual_queue_depth, 0u);
  EXPECT_EQ(rt.residual_queue_depth, 0u);
  // Staging bookkeeping: every grant went through the per-core staging
  // buffers and out in batched flushes.
  EXPECT_EQ(rt_context.metrics().Counter("rt.staged_completions").value(),
            rt.service_grants);
  EXPECT_GT(rt_context.metrics().Counter("rt.flushes").value(), 0u);
}

TEST(RtBackendTest, TimedRunReportsWallClockWindow) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  config.workload.num_locks = 10'000;  // Low contention: measure throughput.
  config.workload.locks_per_txn = 1;
  config.workload.zipf_alpha = 0.0;
  const BackendRunResult result = RunMicroTimed(
      BackendKind::kRt, config, /*warmup=*/5'000'000, /*measure=*/20'000'000);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.metrics.lock_requests, 0u);  // Grants observed in window.
  EXPECT_EQ(result.residual_queue_depth, 0u);
}

TEST(RtBackendTest, TelemetryCountsMatchRunTotals) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  const BackendRunResult result =
      RunMicroFixedCount(BackendKind::kRt, config);
  // Per-core grant shards sum to the run total.
  std::uint64_t summed = 0;
  for (const std::uint64_t g : result.core_grants) summed += g;
  ASSERT_EQ(result.core_grants.size(),
            static_cast<std::size_t>(config.rt_cores));
  EXPECT_EQ(summed, result.service_grants);
  // The rig merged the service's registry into the run's context.
  EXPECT_EQ(context.metrics().Counter("rt.grants").value(),
            result.service_grants);
  // Fully drained fixed-count run: every acquire was granted and released.
  EXPECT_EQ(context.metrics().Counter("rt.requests").value(),
            result.service_grants);
  EXPECT_EQ(context.metrics().Counter("rt.releases").value(),
            result.service_grants);
  EXPECT_GT(context.metrics().Counter("rt.batches").value(), 0u);
  EXPECT_EQ(context.metrics().Counter("rt.commits").value(),
            result.commits);
  // Client-side latency histograms were recorded and merged.
  const LogHistogram lock_latency =
      context.metrics().Histogram("rt.lock_latency").Merged();
  EXPECT_GT(lock_latency.count(), 0u);
  EXPECT_GT(lock_latency.P99(), 0u);
  EXPECT_GT(context.metrics().Histogram("rt.txn_latency").Merged().count(),
            0u);
}

// The report view of the same merge: the run context's snapshot carries
// the service's grant total, the clients' commit total, and one lock
// latency sample per grant the clients received.
TEST(RtBackendTest, RunContextSnapshotMatchesServiceAndClientTotals) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  const BackendRunResult result =
      RunMicroFixedCount(BackendKind::kRt, config);
  std::map<std::string, std::uint64_t> snapshot;
  for (const MetricSample& sample : context.metrics().Snapshot()) {
    snapshot[sample.name] = sample.value;
  }
  EXPECT_EQ(snapshot.at("rt.grants"), result.service_grants);
  EXPECT_EQ(snapshot.at("rt.commits"), result.commits);
  // The fixed-count run records its whole duration.
  EXPECT_EQ(snapshot.at("rt.lock_latency.count"),
            result.metrics.lock_grants);
  EXPECT_GT(result.metrics.lock_grants, 0u);
}

// Both lock services dispatch a lock to a core with RssCore. A 32-bit
// variant of the same mix agrees with it only at power-of-two core counts,
// so 3 and 6 cores are the counts that tell them apart.
TEST(RtBackendTest, RtAndSimulatedServersMapLocksToTheSameCores) {
  for (const int cores : {3, 6}) {
    Simulator sim;
    Network net(sim, /*default_one_way_latency=*/1000);
    LockServerConfig server_config;
    server_config.cores = cores;
    LockServer server(net, server_config);
    RtSubstrate substrate;
    rt::RtLockService::Options options;
    options.cores = cores;
    rt::RtLockService service(options, substrate);
    for (LockId lock = 0; lock < 100'000; ++lock) {
      ASSERT_EQ(service.CoreFor(lock), server.CoreFor(lock))
          << "lock " << lock << " at " << cores << " cores";
    }
  }
}

// The live poller runs over the measurement window of a timed run and the
// result carries its time series — the section BENCH_rt_mlps.json embeds.
TEST(RtBackendTest, TimedRunCarriesTimeSeries) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  config.workload.num_locks = 10'000;
  config.workload.locks_per_txn = 1;
  config.workload.zipf_alpha = 0.0;
  config.rt_poll_interval = 5'000'000;  // 5 ms buckets.
  const BackendRunResult result = RunMicroTimed(
      BackendKind::kRt, config, /*warmup=*/5'000'000, /*measure=*/60'000'000);
  ASSERT_TRUE(result.has_time_series);
  const TimeSeriesStore& ts = result.time_series;
  ASSERT_GT(ts.num_series(), 0u);
  ASSERT_GT(ts.num_buckets(), 0u);
  // Bucket midpoints advance monotonically.
  for (std::size_t b = 1; b < ts.num_buckets(); ++b) {
    EXPECT_GT(ts.BucketTimeSeconds(b), ts.BucketTimeSeconds(b - 1));
  }
  // The grant-rate series exists and saw traffic in some bucket.
  bool found_grants = false;
  for (std::size_t s = 0; s < ts.num_series(); ++s) {
    if (ts.series_name(s) != "rt.grants") continue;
    found_grants = true;
    EXPECT_TRUE(ts.series_is_rate(s));
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < ts.num_buckets(); ++b) {
      total += ts.Delta(s, b);
    }
    EXPECT_GT(total, 0u);
  }
  EXPECT_TRUE(found_grants);
}

// The returned time series outlives the rig whose registries it watched:
// it holds buckets only. Every reader works on every bucket (ASan builds
// catch any read that still reaches the freed rig), and sampling it again
// fails loudly instead of reading freed instruments.
TEST(RtBackendTest, TimedRunTimeSeriesHoldsBucketsOnly) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  config.rt_poll_interval = 5'000'000;  // 5 ms buckets.
  BackendRunResult result = RunMicroTimed(
      BackendKind::kRt, config, /*warmup=*/5'000'000, /*measure=*/30'000'000);
  ASSERT_TRUE(result.has_time_series);
  TimeSeriesStore& ts = result.time_series;
  ASSERT_GT(ts.num_buckets(), 0u);
  double sum = 0.0;
  for (std::size_t s = 0; s < ts.num_series(); ++s) {
    EXPECT_FALSE(ts.series_name(s).empty());
    for (std::size_t b = 0; b < ts.num_buckets(); ++b) {
      sum += ts.Value(s, b) + static_cast<double>(ts.Delta(s, b)) +
             ts.BucketTimeSeconds(b);
    }
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_DEATH(ts.Tick(), "CHECK");
}

TEST(RtBackendTest, TelemetryOffStillCountsAndSkipsHistograms) {
  SimContext context;
  BackendRunConfig config = SmallRun();
  config.context = &context;
  config.rt_telemetry = false;
  const BackendRunResult result =
      RunMicroFixedCount(BackendKind::kRt, config);
  // The sharded counters ARE the service's stats store, so totals survive
  // with telemetry off; the client latency histograms do not.
  EXPECT_EQ(context.metrics().Counter("rt.grants").value(),
            result.service_grants);
  for (const MetricSample& sample : context.metrics().Snapshot()) {
    EXPECT_NE(sample.name.rfind("rt.lock_latency", 0), 0u) << sample.name;
  }
  // The recording-window metrics still work (they are not telemetry).
  EXPECT_GT(result.metrics.lock_grants, 0u);
  EXPECT_FALSE(result.metrics.lock_latency.empty());
}

// --- Deadlock-handling policies across backends ---

constexpr DeadlockPolicy kAllPolicies[] = {DeadlockPolicy::kNoWait,
                                           DeadlockPolicy::kWaitDie,
                                           DeadlockPolicy::kWoundWait};

// Deliberately deadlock-prone shape: unordered lock sets over a small hot
// space. Without a policy this wedges; with one, every txn must still
// commit (aborted attempts retry with a fresh, younger txn id).
BackendRunConfig PolicyRun(DeadlockPolicy policy) {
  BackendRunConfig config = SmallRun();
  config.workload.num_locks = 32;
  config.workload.locks_per_txn = 3;
  config.workload.shared_fraction = 0.3;
  config.deadlock_policy = policy;
  config.unordered_workload = true;
  config.txns_per_session = 150;
  return config;
}

// Cross-backend equivalence under each policy: the same seeded sessions on
// the simulator and the real-time backend must commit every transaction,
// agree exactly on the locks granted to committed transactions, both see a
// nonzero abort stream, and both drain completely. (Abort *counts* differ
// legitimately: retry timing is substrate-dependent.)
TEST(RtBackendTest, PolicyRunsAgreeAcrossBackends) {
  for (const DeadlockPolicy policy : kAllPolicies) {
    SCOPED_TRACE(ToString(policy));
    BackendRunConfig config = PolicyRun(policy);

    SimContext sim_context;
    config.context = &sim_context;
    const BackendRunResult sim =
        RunMicroFixedCount(BackendKind::kSim, config);

    SimContext rt_context;
    config.context = &rt_context;
    const BackendRunResult rt = RunMicroFixedCount(BackendKind::kRt, config);

    const std::uint64_t expected_commits =
        static_cast<std::uint64_t>(config.sessions) *
        config.txns_per_session;
    EXPECT_EQ(sim.commits, expected_commits);
    EXPECT_EQ(rt.commits, expected_commits);
    EXPECT_EQ(sim.committed_lock_grants, rt.committed_lock_grants);
    EXPECT_GT(sim.aborts, 0u);
    EXPECT_GT(rt.aborts, 0u);
    EXPECT_GT(sim.service_aborts, 0u);
    EXPECT_GT(rt.service_aborts, 0u);
    EXPECT_EQ(sim.residual_queue_depth, 0u);
    EXPECT_EQ(rt.residual_queue_depth, 0u);
  }
}

// Oracle replay of the rt event log under each policy: the linearized
// stream now contains kAbort events (refusals, deaths, wounds, cancel
// removals); replaying them must leave mutual exclusion intact and every
// holder released.
TEST(RtBackendTest, OracleHoldsUnderPoliciesOnRt) {
  for (const DeadlockPolicy policy : kAllPolicies) {
    SCOPED_TRACE(ToString(policy));
    SimContext context;
    BackendRunConfig config = PolicyRun(policy);
    config.context = &context;
    config.rt_cores = 4;  // Locks shard across cores; wounds cross them.
    config.rt_client_threads = 4;
    config.rt_record_events = true;
    const BackendRunResult result =
        RunMicroFixedCount(BackendKind::kRt, config);
    ASSERT_FALSE(result.events.empty());

    testing::LockOracle oracle;
    testing::ReplayRtEventsThroughOracle(result.events, oracle);
    EXPECT_EQ(oracle.violations(), 0u)
        << (oracle.violation_log().empty() ? "" : oracle.violation_log()[0]);
    EXPECT_EQ(oracle.fifo_violations(), 0u);
    EXPECT_EQ(oracle.TotalHolders(), 0u);  // Fully drained.
  }
}

// Multi-shard wound regression: with locks sharded over 4 cores, a wound
// delivered by one core's engine must lead the client to cancel the txn's
// pending entries on *other* cores (kCancel), or those queues stall and
// the fixed-count run never finishes. Completion + full drain + a nonzero
// wound count is the regression signal.
TEST(RtBackendTest, WoundClearsPendingEntriesAcrossCores) {
  SimContext context;
  BackendRunConfig config = PolicyRun(DeadlockPolicy::kWoundWait);
  config.context = &context;
  config.rt_cores = 4;
  config.rt_client_threads = 4;
  const BackendRunResult result =
      RunMicroFixedCount(BackendKind::kRt, config);
  EXPECT_EQ(result.commits,
            static_cast<std::uint64_t>(config.sessions) *
                config.txns_per_session);
  EXPECT_GT(result.wounds, 0u);
  EXPECT_EQ(result.residual_queue_depth, 0u);
}

// Seeds a mutual-exclusion violation by dropping some releases from the
// oracle replay, then asserts the flight recorder produces a dump that
// round-trips through ParseText — the autopsy workflow end to end.
TEST(RtBackendTest, SeededViolationDumpsFlightRecorder) {
  SimContext context;
  FlightRecorder recorder(/*shards=*/4, /*capacity_per_shard=*/4096);
  BackendRunConfig config = SmallRun();
  config.context = &context;
  config.rt_cores = 4;
  config.rt_client_threads = 4;
  config.rt_record_events = true;
  config.rt_flight_recorder = &recorder;
  const BackendRunResult result =
      RunMicroFixedCount(BackendKind::kRt, config);
  ASSERT_FALSE(result.events.empty());
  EXPECT_GT(recorder.recorded(), 0u);

  testing::LockOracle oracle;
  testing::RtReplayOptions replay;
  replay.drop = [](const rt::RtEvent& ev) {
    return ev.kind == rt::RtEvent::Kind::kRelease && ev.txn % 7 == 3;
  };
  replay.recorder = &recorder;
  const std::string prefix = ::testing::TempDir() + "/rt_seeded_violation";
  replay.dump_prefix = prefix;
  const std::uint64_t violations =
      testing::ReplayRtEventsThroughOracle(result.events, oracle, replay);
  ASSERT_GT(violations, 0u);  // The seeded bug must be caught...

  // ...and the dump must exist and parse.
  std::ifstream file(prefix + ".txt");
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::vector<FlightRecorder::Event> parsed;
  ASSERT_TRUE(FlightRecorder::ParseText(buffer.str(), &parsed));
  EXPECT_FALSE(parsed.empty());
  bool saw_grant = false;
  for (const FlightRecorder::Event& ev : parsed) {
    if (ev.op == FlightRecorder::Op::kGrant) saw_grant = true;
  }
  EXPECT_TRUE(saw_grant);
}

}  // namespace
}  // namespace netlock
