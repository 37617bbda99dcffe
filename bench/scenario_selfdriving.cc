// Self-driving control plane: static one-shot allocation vs continuous
// demand-tracking reallocation (SelfDrivingController) on the NetLock
// testbed.
//
// Two sections:
//
//  * Drift: a hot window of locks that jumps to a fresh region of the
//    lock space every `drift_period`. The static run installs the
//    paper's one-shot knapsack for the *initial* window and never
//    adapts: after the first jump almost every request detours to the
//    lock servers. The self-driving run starts from the same install and
//    lets the controller chase the window (EWMA + incremental knapsack +
//    pause/drain/move migrations). Each "drift/<mode>" run carries
//    `goodput_tps` and `switch_share` extras; the self-driving run adds
//    the controller decision counters and the `goodput_vs_static` ratio
//    CI asserts >= 1.15x. The self-driving run's ctrl.* counters feed
//    the report's "time_series" section next to the commit rate.
//
//  * Stationary: the same topology under an unchanging uniform workload.
//    The controller must go quiet: `stationary_migrations` counts every
//    promotion/demotion/resize/re-home issued after a settle window and
//    CI asserts it is exactly zero (the hysteresis dampers hold).
//
// `--controller=on|off` restricts the drift section to one side
// (default: both; the ratio extra needs both). `--quick` shrinks the
// windows for the CI smoke gate.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/memory_alloc.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sampler.h"
#include "harness/testbed.h"
#include "workload/micro.h"
#include "workload/workload.h"

namespace netlock {
namespace {

constexpr LockId kLockSpace = 2048;
constexpr LockId kWindow = 32;       // Hot-window size, in locks.
constexpr double kHotFraction = 0.9;
constexpr std::uint32_t kLocksPerTxn = 2;

/// Hot-window workload whose window base the driver moves at runtime:
/// `hot_fraction` of picks land uniformly in [*base, *base + window), the
/// rest uniformly over the whole space. Sorted lock order (the testbed's
/// standard 2PL discipline) — this bench stresses placement, not
/// deadlocks.
class DriftWorkload final : public WorkloadGenerator {
 public:
  DriftWorkload(const LockId* base, LockId window)
      : base_(base), window_(window) {}

  void NextInto(Rng& rng, TxnSpec& out) override {
    out.locks.clear();
    for (std::uint32_t i = 0; i < kLocksPerTxn; ++i) {
      const LockId lock =
          rng.NextBool(kHotFraction)
              ? *base_ + static_cast<LockId>(rng.NextBounded(window_))
              : static_cast<LockId>(rng.NextBounded(kLockSpace));
      out.locks.push_back(LockRequest{lock, LockMode::kExclusive});
    }
    NormalizeTxn(out);
  }
  LockId lock_space() const override { return kLockSpace; }

 private:
  const LockId* base_;
  LockId window_;
};

ControllerConfig DriftControllerConfig() {
  ControllerConfig config;
  // Fast cadence relative to the 40 ms drift period: harvest every 2 ms,
  // start migrating after 2 observation ticks, and allow a whole window
  // swap (32 demotions + 32 promotions) to finish in ~4 ticks.
  config.interval = 2 * kMillisecond;
  config.warmup_ticks = 2;
  config.ewma_alpha = 0.4;
  config.min_dwell = 6 * kMillisecond;
  config.migration_budget = 16;
  return config;
}

TestbedConfig DriftTestbedConfig(BenchReport& report) {
  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 4;
  config.sessions_per_machine = 4;
  config.lock_servers = 2;
  config.seed = 11;
  config.txn_config.think_time = 5 * kMicrosecond;
  // Exactly one hot window fits: 32 locks x 8 slots.
  config.switch_config.queue_capacity = 256;
  config.controller = true;  // Constructed for both runs; started for one.
  config.controller_config = DriftControllerConfig();
  return config;
}

/// The knapsack input the static run is built from (and the self-driving
/// run starts from): the phase-0 hot window, exactly as the paper's
/// offline profile would see it.
std::vector<LockDemand> InitialDemands() {
  std::vector<LockDemand> demands;
  demands.reserve(kLockSpace);
  for (LockId lock = 0; lock < kLockSpace; ++lock) {
    const bool hot = lock < kWindow;
    demands.push_back(
        LockDemand{lock, hot ? 1000.0 : 0.1, hot ? 8u : 1u});
  }
  return demands;
}

struct DriftResult {
  RunMetrics metrics;
  std::uint64_t switch_grants = 0;  ///< Over the measured window only.
  std::uint64_t server_grants = 0;
  ControllerStats stats;
  double goodput_tps = 0.0;
  double switch_share = 0.0;
};

DriftResult RunDrift(bool controller_on, BenchReport& report) {
  const bool quick = report.quick();
  const SimTime warmup = 20 * kMillisecond;
  const SimTime drift_period = 40 * kMillisecond;
  const SimTime measure = quick ? 4 * drift_period : 16 * drift_period;

  LockId hot_base = 0;  // Outlives the testbed's engines below.
  TestbedConfig config = DriftTestbedConfig(report);
  config.workload_factory = [&hot_base](int) {
    return std::make_unique<DriftWorkload>(&hot_base, kWindow);
  };
  Testbed testbed(config);
  testbed.sharded().InstallKnapsack(InitialDemands());
  if (controller_on) testbed.controller().Start();

  // The window jumps to a fresh region every drift_period (wrapping well
  // inside the lock space so it never overlaps the previous window). The
  // first jump lands at the start of the measured window, so the static
  // run's phase-0 install is stale for the whole measurement.
  for (SimTime t = warmup; t < warmup + measure; t += drift_period) {
    testbed.sim().Schedule(t, [&hot_base] {
      hot_base = (hot_base + kWindow) % (kLockSpace / 2);
    });
  }

  TimeSeriesSampler sampler(testbed.sim(), 5 * kMillisecond);
  sampler.Watch("client.txn_commits");
  sampler.Watch("dataplane.acquires_granted");
  sampler.Watch("ctrl.reallocs");
  sampler.Watch("ctrl.promotions");
  sampler.Watch("ctrl.demotions");

  testbed.StartEngines();
  testbed.sim().RunUntil(warmup);
  testbed.SetRecording(true);
  if (controller_on) sampler.Start(measure);
  const std::uint64_t switch0 = testbed.sharded().SwitchGrants();
  const std::uint64_t server0 = testbed.sharded().ServerGrants();
  testbed.sim().RunUntil(warmup + measure);

  DriftResult result;
  result.metrics = testbed.Collect(measure);
  result.switch_grants = testbed.sharded().SwitchGrants() - switch0;
  result.server_grants = testbed.sharded().ServerGrants() - server0;
  result.stats = testbed.controller().stats();
  result.goodput_tps = static_cast<double>(result.metrics.txn_commits) /
                       (static_cast<double>(measure) / kSecond);
  const double grants =
      static_cast<double>(result.switch_grants + result.server_grants);
  result.switch_share =
      grants > 0 ? static_cast<double>(result.switch_grants) / grants : 0.0;
  if (controller_on) {
    sampler.Stop();
    report.AttachTimeSeries(sampler.store());
  }
  if (controller_on) testbed.controller().Stop();
  testbed.StopEngines(kSecond);
  return result;
}

void RunDriftSection(BenchReport& report) {
  Banner("Drifting hot set: static knapsack vs self-driving controller");
  const std::string& seam = report.options().controller;
  const bool run_static = seam.empty() || seam == "off";
  const bool run_selfdriving = seam.empty() || seam == "on";

  Table table({"mode", "goodput(tps)", "commits", "switch share",
               "promotions", "demotions", "txn p99(us)"});
  double static_goodput = 0.0;
  if (run_static) {
    const DriftResult result =
        RunDrift(/*controller_on=*/false, report);
    static_goodput = result.goodput_tps;
    table.AddRow({"static", Fmt(result.goodput_tps, 0),
                  std::to_string(result.metrics.txn_commits),
                  Fmt(result.switch_share, 3), "0", "0",
                  FmtUs(result.metrics.txn_latency.P99())});
    BenchRun& run = report.AddRun("drift/static", result.metrics);
    run.extra.emplace_back("goodput_tps", result.goodput_tps);
    run.extra.emplace_back("switch_share", result.switch_share);
  }
  if (run_selfdriving) {
    const DriftResult result =
        RunDrift(/*controller_on=*/true, report);
    table.AddRow({"selfdriving", Fmt(result.goodput_tps, 0),
                  std::to_string(result.metrics.txn_commits),
                  Fmt(result.switch_share, 3),
                  std::to_string(result.stats.promotions),
                  std::to_string(result.stats.demotions),
                  FmtUs(result.metrics.txn_latency.P99())});
    BenchRun& run = report.AddRun("drift/selfdriving", result.metrics);
    run.extra.emplace_back("goodput_tps", result.goodput_tps);
    run.extra.emplace_back("switch_share", result.switch_share);
    run.extra.emplace_back("reallocs",
                           static_cast<double>(result.stats.reallocs));
    run.extra.emplace_back("promotions",
                           static_cast<double>(result.stats.promotions));
    run.extra.emplace_back("demotions",
                           static_cast<double>(result.stats.demotions));
    run.extra.emplace_back("resizes",
                           static_cast<double>(result.stats.resizes));
    if (run_static && static_goodput > 0) {
      run.extra.emplace_back("goodput_vs_static",
                             result.goodput_tps / static_goodput);
    }
  }
  table.Print();
}

// ---------------------------------------------------------------------------
// Stationary control: the settled controller must stop migrating.
// ---------------------------------------------------------------------------

void RunStationarySection(BenchReport& report) {
  Banner("Stationary workload: settled controller issues zero migrations");
  const SimTime settle = 100 * kMillisecond;
  const SimTime measure =
      report.quick() ? 100 * kMillisecond : 400 * kMillisecond;

  TestbedConfig config = DriftTestbedConfig(report);
  config.switch_config.queue_capacity = 64;
  MicroConfig micro;
  micro.num_locks = 16;
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  testbed.sharded().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  testbed.controller().Start();
  testbed.StartEngines();

  testbed.sim().RunUntil(settle);
  const ControllerStats settled = testbed.controller().stats();
  testbed.SetRecording(true);
  testbed.sim().RunUntil(settle + measure);
  const ControllerStats after = testbed.controller().stats();
  const RunMetrics metrics = testbed.Collect(measure);
  testbed.controller().Stop();
  testbed.StopEngines(kSecond);

  const std::uint64_t migrations =
      (after.promotions - settled.promotions) +
      (after.demotions - settled.demotions) +
      (after.resizes - settled.resizes) + (after.rehomes - settled.rehomes);
  const std::uint64_t ticks = after.ticks - settled.ticks;
  Table table({"ticks", "migrations", "goodput(tps)", "txn p99(us)"});
  table.AddRow({std::to_string(ticks), std::to_string(migrations),
                Fmt(static_cast<double>(metrics.txn_commits) /
                        (static_cast<double>(measure) / kSecond),
                    0),
                FmtUs(metrics.txn_latency.P99())});
  table.Print();

  BenchRun& run = report.AddRun("stationary/selfdriving", metrics);
  run.extra.emplace_back("stationary_migrations",
                         static_cast<double>(migrations));
  run.extra.emplace_back("ctrl_ticks", static_cast<double>(ticks));
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  BenchReport report("scenario_selfdriving", options);
  RunDriftSection(report);
  RunStationarySection(report);
  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) { return netlock::Main(argc, argv); }
