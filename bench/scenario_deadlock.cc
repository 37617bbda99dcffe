// Deadlock-handling policies under deadlock-prone workloads.
//
// Two sections:
//
//  * Real-time backend (primary, wall-clock): the contended unordered
//    micro workload — deduplicated but *shuffled* lock sets, acquired in
//    workload order — run once per policy (no-wait / wait-die /
//    wound-wait) through RunMicroTimed. Each "rt/policy=<p>" run carries
//    `goodput_tps` (commits per wall second), `abort_rate`
//    (aborts / (commits + aborts)), `wounds` and `service_aborts` extras;
//    CI asserts wound-wait goodput >= no-wait goodput and that every
//    policy sees a nonzero abort rate (the workload really is
//    deadlock-prone). The wound-wait run's live telemetry feeds the
//    report's "time_series" section.
//
//  * Simulated scenario (ServerOnly system, open-loop): ScenarioWorkload's
//    drifting-Zipf hot set plus a mid-run flash crowd (the driver bumps
//    OpenLoopEngine::set_offered_tps 10x for the middle third of the
//    window). kNone rides along as the baseline: with no policy, unordered
//    acquisition wedges into real deadlock cycles that only the lease
//    breaks, and goodput collapses — the gap is the point of the policies.
//
// `--backend=sim` / `--backend=rt` restricts to one section (default:
// both). `--quick` shrinks windows for the CI smoke gate.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/server_only.h"
#include "client/client.h"
#include "client/open_loop.h"
#include "harness/backend.h"
#include "harness/report.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace netlock {
namespace {

constexpr DeadlockPolicy kPolicies[] = {
    DeadlockPolicy::kNoWait,
    DeadlockPolicy::kWaitDie,
    DeadlockPolicy::kWoundWait,
};

double AbortRate(std::uint64_t commits, std::uint64_t aborts) {
  const double total = static_cast<double>(commits + aborts);
  return total > 0 ? static_cast<double>(aborts) / total : 0.0;
}

// ---------------------------------------------------------------------------
// Section 1: real-time backend, per-policy goodput on the contended
// unordered micro workload.
// ---------------------------------------------------------------------------

void RunRt(BenchReport& report) {
  Banner("Real-time backend: unordered contended workload, per policy");
  Table table({"policy", "goodput(tps)", "commits", "aborts", "wounds",
               "abort rate", "txn p99(us)", "residual q"});
  const SimTime warmup =
      report.quick() ? 50 * kMillisecond : 300 * kMillisecond;
  const SimTime measure =
      report.quick() ? 250 * kMillisecond : 2 * kSecond;
  for (std::size_t pi = 0; pi < std::size(kPolicies); ++pi) {
    const DeadlockPolicy policy = kPolicies[pi];
    BackendRunConfig config;
    config.context = &report.context();
    // High contention on purpose: few locks, multi-lock transactions,
    // unsorted acquisition order. No-wait burns its throughput on
    // retries here; wound-wait keeps the oldest transaction moving.
    config.workload.num_locks = 48;
    config.workload.locks_per_txn = 4;
    config.workload.shared_fraction = 0.2;
    config.workload.zipf_alpha = 0.9;
    config.seed = 7;
    config.sessions = report.quick() ? 8 : 16;
    config.rt_client_threads = 2;
    config.rt_cores = 2;
    config.deadlock_policy = policy;
    config.unordered_workload = true;
    const BackendRunResult result =
        RunMicroTimed(BackendKind::kRt, config, warmup, measure);
    const double goodput =
        result.wall_seconds > 0
            ? static_cast<double>(result.commits) / result.wall_seconds
            : 0.0;
    const double abort_rate = AbortRate(result.commits, result.aborts);
    table.AddRow({ToString(policy), Fmt(goodput, 0),
                  std::to_string(result.commits),
                  std::to_string(result.aborts),
                  std::to_string(result.wounds), Fmt(abort_rate, 3),
                  FmtUs(result.metrics.txn_latency.P99()),
                  std::to_string(result.residual_queue_depth)});
    BenchRun& run = report.AddRun(
        std::string("rt/policy=") + ToString(policy), result.metrics);
    run.extra.emplace_back("goodput_tps", goodput);
    run.extra.emplace_back("abort_rate", abort_rate);
    run.extra.emplace_back("aborts", static_cast<double>(result.aborts));
    run.extra.emplace_back("wounds", static_cast<double>(result.wounds));
    run.extra.emplace_back("service_aborts",
                           static_cast<double>(result.service_aborts));
    run.extra.emplace_back(
        "residual_queue_depth",
        static_cast<double>(result.residual_queue_depth));
    run.extra.emplace_back("rt_wall_ms", result.wall_seconds * 1e3);
    if (pi + 1 == std::size(kPolicies) && result.has_time_series) {
      report.AttachTimeSeries(result.time_series);
    }
  }
  table.Print();
}

// ---------------------------------------------------------------------------
// Section 2: simulated flash-crowd scenario on the ServerOnly system.
// ---------------------------------------------------------------------------

struct ScenarioResult {
  RunMetrics metrics;
  std::uint64_t aborts = 0;  ///< Policy aborts observed by the clients.
  std::uint64_t wounds = 0;
  std::uint64_t shed = 0;  ///< Arrivals dropped at max_outstanding.
  SimTime window = 0;
};

ScenarioResult RunScenario(DeadlockPolicy policy, BenchReport& report) {
  const bool quick = report.quick();
  // Sized so the hot window stays saturated through the flash crowd but
  // the whole sweep finishes in simulated milliseconds.
  const int kMachines = 4;
  const int kEnginesPerMachine = 4;
  const double base_tps = 2000.0;   // Per engine.
  const double burst_tps = 20000.0;  // Flash crowd: 10x for a third.
  const SimTime warmup = 20 * kMillisecond;
  const SimTime window = quick ? 120 * kMillisecond : 600 * kMillisecond;

  Simulator sim(&report.context());
  Network net(sim, /*default_latency=*/4000);
  LockServerConfig server_config;
  server_config.deadlock_policy = policy;
  ServerOnlyManager manager(net, server_config, /*num_servers=*/2);
  // Short lease so the kNone baseline's wedges resolve a few times per
  // window instead of once; the policies never rely on it.
  manager.StartLeasePolling(20 * kMillisecond, 5 * kMillisecond);

  ScenarioConfig scenario;
  scenario.num_locks = 4096;
  scenario.hot_set_size = 16;
  scenario.hot_fraction = 0.8;
  scenario.locks_per_txn = 4;
  scenario.shared_fraction = 0.2;
  scenario.unordered = true;

  std::vector<std::unique_ptr<ClientMachine>> machines;
  std::vector<std::unique_ptr<LockSession>> sessions;
  std::vector<std::unique_ptr<OpenLoopEngine>> engines;
  for (int m = 0; m < kMachines; ++m) {
    machines.push_back(std::make_unique<ClientMachine>(net));
  }
  for (int i = 0; i < kMachines * kEnginesPerMachine; ++i) {
    sessions.push_back(manager.CreateSession(*machines[i % kMachines]));
    OpenLoopConfig oconfig;
    oconfig.offered_tps = base_tps;
    oconfig.think_time = 2 * kMicrosecond;
    oconfig.preserve_workload_order = true;  // Deadlock-prone on purpose.
    engines.push_back(std::make_unique<OpenLoopEngine>(
        sim, *sessions.back(), std::make_unique<ScenarioWorkload>(scenario),
        static_cast<std::uint32_t>(i + 1), 500 + i, oconfig));
    engines.back()->Start();
  }

  sim.RunUntil(warmup);
  for (auto& engine : engines) engine->SetRecording(true);
  // Flash crowd occupies the middle third of the measured window.
  sim.Schedule(window / 3, [&engines, burst_tps]() {
    for (auto& engine : engines) engine->set_offered_tps(burst_tps);
  });
  sim.Schedule(2 * window / 3, [&engines, base_tps]() {
    for (auto& engine : engines) engine->set_offered_tps(base_tps);
  });
  sim.RunUntil(warmup + window);

  ScenarioResult result;
  result.window = window;
  for (auto& engine : engines) {
    engine->Stop();
    result.metrics.txn_commits += engine->metrics().txn_commits;
    result.metrics.lock_grants += engine->metrics().lock_grants;
    result.metrics.lock_requests += engine->metrics().lock_requests;
    result.aborts += engine->metrics().retries;
    result.metrics.txn_latency.Merge(engine->metrics().txn_latency);
    result.wounds += engine->wounds();
    result.shed += engine->dropped_arrivals();
  }
  result.metrics.duration = window;
  return result;
}

void RunSim(BenchReport& report) {
  Banner("Sim scenario: drifting hot set + flash crowd (ServerOnly)");
  Table table({"policy", "goodput(tps)", "commits", "aborts", "wounds",
               "abort rate", "shed", "txn p99(us)"});
  // kNone leads as the no-policy baseline: real deadlocks, broken only by
  // the lease, so its goodput collapses under the crowd.
  const std::vector<DeadlockPolicy> policies = {
      DeadlockPolicy::kNone, DeadlockPolicy::kNoWait,
      DeadlockPolicy::kWaitDie, DeadlockPolicy::kWoundWait};
  for (const DeadlockPolicy policy : policies) {
    const ScenarioResult result = RunScenario(policy, report);
    const double seconds =
        static_cast<double>(result.window) / static_cast<double>(kSecond);
    const double goodput =
        static_cast<double>(result.metrics.txn_commits) / seconds;
    const double abort_rate =
        AbortRate(result.metrics.txn_commits, result.aborts);
    table.AddRow({ToString(policy), Fmt(goodput, 0),
                  std::to_string(result.metrics.txn_commits),
                  std::to_string(result.aborts),
                  std::to_string(result.wounds), Fmt(abort_rate, 3),
                  std::to_string(result.shed),
                  FmtUs(result.metrics.txn_latency.P99())});
    BenchRun& run = report.AddRun(
        std::string("scenario/policy=") + ToString(policy), result.metrics);
    run.extra.emplace_back("goodput_tps", goodput);
    run.extra.emplace_back("abort_rate", abort_rate);
    run.extra.emplace_back("aborts", static_cast<double>(result.aborts));
    run.extra.emplace_back("wounds", static_cast<double>(result.wounds));
    run.extra.emplace_back("shed", static_cast<double>(result.shed));
  }
  table.Print();
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  BenchReport report("scenario_deadlock", options);
  BackendKind only = BackendKind::kSim;
  const bool restricted =
      !options.backend.empty() && ParseBackendKind(options.backend, &only);
  if (!restricted || only == BackendKind::kRt) RunRt(report);
  if (!restricted || only == BackendKind::kSim) RunSim(report);
  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) { return netlock::Main(argc, argv); }
