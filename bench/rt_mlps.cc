// Wall-clock lock throughput (MLPS) on the real-time backend, published
// next to the simulated-time number for the same workload.
//
// Every other bench reports simulated-time throughput; this one runs the
// identical micro workload through the same compiled LockEngine on real
// threads (RtLockService, clocked by RtSubstrate's wall clock) and measures
// grants per wall-clock second — the number the paper's testbed would
// print. Methodology (see EXPERIMENTS.md): closed-loop sessions, a warm-up
// window excluded from measurement, then a timed measurement window; the
// "wall_mlps" extra in BENCH_rt_mlps.json carries the wall-clock figure so
// CI can assert the backend actually grants locks at speed.
//
// `--backend=sim` / `--backend=rt` restricts the run to one substrate
// (default: both, so the report carries the pair). `--telemetry=off`
// disables the rt observability plane (sharded latency histograms, flight
// recorder, live stats poller) for overhead comparison — CI asserts the
// on/off wall_mlps ratio. `--stats-socket=PATH` serves live snapshots for
// `netlock_top` during the measurement windows.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/backend.h"
#include "harness/report.h"

namespace netlock {
namespace {

struct RtMlpsOptions {
  bool telemetry = true;
  std::string stats_socket;
};

RtMlpsOptions ParseRtMlpsOptions(int argc, char** argv) {
  RtMlpsOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--telemetry=off") options.telemetry = false;
    if (arg == "--telemetry=on") options.telemetry = true;
    if (arg.rfind("--stats-socket=", 0) == 0) {
      options.stats_socket = arg.substr(std::strlen("--stats-socket="));
    }
  }
  return options;
}

BackendRunConfig BaseConfig(BenchReport& report) {
  const bool quick = report.quick();
  BackendRunConfig config;
  config.context = &report.context();
  config.workload.num_locks = 10'000;  // Low contention: throughput mode.
  config.workload.locks_per_txn = 1;
  config.workload.shared_fraction = 0.0;
  config.workload.zipf_alpha = 0.0;
  config.seed = 1;
  config.sessions = quick ? 8 : 16;
  config.rt_client_threads = quick ? 2 : 4;
  return config;
}

void AddLatencyExtras(BenchRun& run, const RunMetrics& metrics) {
  if (!metrics.lock_latency.empty()) {
    run.extra.emplace_back(
        "lock_p90_ns",
        static_cast<double>(metrics.lock_latency.Percentile(0.90)));
  }
  if (!metrics.txn_latency.empty()) {
    run.extra.emplace_back(
        "txn_p50_ns", static_cast<double>(metrics.txn_latency.Median()));
    run.extra.emplace_back(
        "txn_p90_ns",
        static_cast<double>(metrics.txn_latency.Percentile(0.90)));
    // txn_p99_ns is already filled by AddRun(label, metrics).
    run.extra.emplace_back(
        "txn_p999_ns", static_cast<double>(metrics.txn_latency.P999()));
  }
}

void RunRt(BenchReport& report, const RtMlpsOptions& rt_options) {
  Banner("Real-time backend: wall-clock MLPS vs worker cores");
  Table table({"cores", "wall MLPS", "grants", "avg(us)", "p99(us)",
               "residual q"});
  const std::vector<int> cores_sweep =
      report.quick() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const SimTime warmup =
      report.quick() ? 50 * kMillisecond : 500 * kMillisecond;
  const SimTime measure =
      report.quick() ? 200 * kMillisecond : 2 * kSecond;
  for (std::size_t ci = 0; ci < cores_sweep.size(); ++ci) {
    const int cores = cores_sweep[ci];
    BackendRunConfig config = BaseConfig(report);
    config.rt_cores = cores;
    config.rt_telemetry = rt_options.telemetry;
    config.rt_stats_socket = rt_options.stats_socket;
    const BackendRunResult result =
        RunMicroTimed(BackendKind::kRt, config, warmup, measure);
    const double mlps =
        result.wall_seconds > 0
            ? static_cast<double>(result.metrics.lock_grants) /
                  result.wall_seconds / 1e6
            : 0.0;
    table.AddRow({std::to_string(cores), Fmt(mlps, 3),
                  std::to_string(result.metrics.lock_grants),
                  FmtUs(static_cast<SimTime>(
                      result.metrics.lock_latency.Mean())),
                  FmtUs(result.metrics.lock_latency.P99()),
                  std::to_string(result.residual_queue_depth)});
    BenchRun& run = report.AddRun(
        "rt/cores=" + std::to_string(cores), result.metrics);
    run.extra.emplace_back("wall_mlps", mlps);
    run.extra.emplace_back("rt_wall_ms", result.wall_seconds * 1e3);
    run.extra.emplace_back(
        "residual_queue_depth",
        static_cast<double>(result.residual_queue_depth));
    AddLatencyExtras(run, result.metrics);
    // Per-core MLPS: the run-total wall rate split by each core's share of
    // grants (the service counts grants per core over the whole run).
    std::uint64_t total_grants = 0;
    for (const std::uint64_t g : result.core_grants) total_grants += g;
    for (std::size_t c = 0; c < result.core_grants.size(); ++c) {
      const double share =
          total_grants > 0
              ? static_cast<double>(result.core_grants[c]) /
                    static_cast<double>(total_grants)
              : 0.0;
      run.extra.emplace_back("core" + std::to_string(c) + "_mlps",
                             mlps * share);
    }
    // The "time_series" section carries the live poller's view of the
    // largest-cores run (one run keeps the JSON readable).
    if (ci + 1 == cores_sweep.size() && result.has_time_series) {
      report.AttachTimeSeries(result.time_series);
    }
  }
  table.Print();
}

// Contention: Zipf-skewed multi-lock transactions queue behind each other
// and releases cascade several grants at once, on one park-eager core.
void RunRtContended(BenchReport& report, const RtMlpsOptions& rt_options) {
  Banner("Real-time backend: contended Zipf workload");
  BackendRunConfig config;
  config.context = &report.context();
  config.workload.num_locks = 512;
  config.workload.locks_per_txn = 2;
  config.workload.shared_fraction = 0.2;
  config.workload.zipf_alpha = 0.99;
  config.seed = 1;
  config.sessions = report.quick() ? 32 : 64;
  config.rt_client_threads = 1;
  config.rt_cores = 1;
  config.rt_telemetry = rt_options.telemetry;
  // Park-eager idle tuning (shared-host deployment mode): workers park as
  // soon as their mailboxes run dry instead of burning a shared CPU, so
  // every submit-side doorbell that finds the worker parked is a real
  // futex wake. Batched submits and doorbell coalescing keep that to one
  // wake per flush instead of one per request.
  config.rt_spin_rounds = 0;
  config.rt_yield_rounds = 0;
  config.rt_park_timeout_us = 2000;
  const SimTime warmup =
      report.quick() ? 50 * kMillisecond : 500 * kMillisecond;
  const SimTime measure =
      report.quick() ? 200 * kMillisecond : 2 * kSecond;
  const BackendRunResult result =
      RunMicroTimed(BackendKind::kRt, config, warmup, measure);
  const double mlps =
      result.wall_seconds > 0
          ? static_cast<double>(result.metrics.lock_grants) /
                result.wall_seconds / 1e6
          : 0.0;
  std::printf("contended zipf(%.2f) %d locks: %.3f wall MLPS\n",
              config.workload.zipf_alpha, config.workload.num_locks, mlps);
  BenchRun& run = report.AddRun("rt_contended", result.metrics);
  run.extra.emplace_back("wall_mlps", mlps);
  run.extra.emplace_back("rt_wall_ms", result.wall_seconds * 1e3);
  AddLatencyExtras(run, result.metrics);
}

void RunSim(BenchReport& report) {
  Banner("Simulated twin: same workload, simulated-time MLPS");
  BackendRunConfig config = BaseConfig(report);
  const SimTime warmup = 5 * kMillisecond;
  const SimTime measure =
      report.quick() ? 10 * kMillisecond : 50 * kMillisecond;
  const BackendRunResult result =
      RunMicroTimed(BackendKind::kSim, config, warmup, measure);
  PrintRunSummary("sim (ServerOnly twin)", result.metrics);
  report.AddRun("sim", result.metrics);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const RtMlpsOptions rt_options = ParseRtMlpsOptions(argc, argv);
  BenchReport report("rt_mlps", options);
  BackendKind only = BackendKind::kSim;
  const bool restricted =
      !options.backend.empty() && ParseBackendKind(options.backend, &only);
  if (!restricted || only == BackendKind::kRt) {
    RunRt(report, rt_options);
    RunRtContended(report, rt_options);
  }
  if (!restricted || only == BackendKind::kSim) RunSim(report);
  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) { return netlock::Main(argc, argv); }
