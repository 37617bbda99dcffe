// Figure 15 — Failure handling (paper Section 6.5).
//
// TPC-C steady state; at t=10s the lock switch stops processing packets
// (register state lost), and shortly after it is reactivated and the
// control plane reinstalls the allocation. Clients keep retrying; leases
// clear stranded grants. Throughput collapses during the outage and
// returns to the pre-failure level immediately after reactivation.
#include <cstdio>

#include "common/tracelog.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sampler.h"
#include "harness/testbed.h"
#include "testing/fault_plan.h"

namespace netlock {
namespace {

// The failure timeline is expressed as a declarative FaultPlan — the same
// vocabulary the schedule fuzzer runs and shrinks — so the bench scenario
// can be replayed through `netlock_fuzz --plan=...` verbatim.
testing::FaultPlan Fig15Plan(SimTime fail_at, SimTime recover_at) {
  testing::FaultPlan plan;
  plan.actions.push_back(
      {testing::FaultKind::kSwitchCrash, fail_at, 0, 0, 0});
  plan.actions.push_back(
      {testing::FaultKind::kSwitchRestart, recover_at, 0, 0, 0});
  return plan;
}

// Executes one plan action against the bench testbed. The bench drives the
// plan itself (rather than through the fuzzer harness) because it owns the
// sampler, recording windows, and report plumbing.
void FireAction(Testbed& testbed, const testing::FaultAction& action) {
  switch (action.kind) {
    case testing::FaultKind::kSwitchCrash:
      testbed.netlock().control_plane().FailSwitch();
      break;
    case testing::FaultKind::kSwitchRestart:
      testbed.netlock().control_plane().RecoverSwitch();
      break;
    default:
      break;
  }
  std::fprintf(stderr, "  fault '%s' fired at %.2fs\n",
               testing::ToString(action.kind),
               static_cast<double>(testbed.sim().now()) / kSecond);
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("fig15_failure", ParseBenchOptions(argc, argv));
  // The paper's x-axis spans 20 s; we compress to 2 s of simulated time
  // with the failure at 0.8 s and reactivation at 1.2 s — the same phases
  // at a tenth of the wall cost. --quick compresses a further 4x.
  const SimTime kFailAt =
      report.quick() ? 200 * kMillisecond : 800 * kMillisecond;
  const SimTime kRecoverAt =
      report.quick() ? 300 * kMillisecond : 1200 * kMillisecond;
  const SimTime kEnd = report.quick() ? 500 * kMillisecond : 2 * kSecond;
  const SimTime kBucket =
      report.quick() ? 25 * kMillisecond : 50 * kMillisecond;
  std::printf(
      "NetLock reproduction — Figure 15 (switch failure handling)\n"
      "Failure at %.1fs, reactivation at %.1fs.\n",
      static_cast<double>(kFailAt) / kSecond,
      static_cast<double>(kRecoverAt) / kSecond);

  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 10;
  config.sessions_per_machine = 8;
  config.lock_servers = 2;
  config.client_retry_timeout = 2 * kMillisecond;
  config.lease = 20 * kMillisecond;
  config.lease_poll_interval = 5 * kMillisecond;
  config.txn_config.think_time = 10 * kMicrosecond;
  config.workload_factory = TpccFactory(TpccWarehouses(10, false));
  Testbed testbed(config);
  ProfileAndInstall(testbed, config.switch_config.queue_capacity,
                    /*random_strawman=*/false,
                    /*profile_duration=*/40 * kMillisecond);
  // Trace the measured run, not the profiling phase: at full sampling the
  // profiling warm-up alone would eat most of the trace capacity.
  report.context().trace().Clear();

  // The throughput-over-time curve comes from the registry sampler: every
  // engine bumps "client.txn_commits" unconditionally, and the sampler
  // buckets the deltas at kBucket resolution. Profiling already consumed
  // some simulated time, so first advance to the next multiple of kBucket:
  // the failure/recovery instants are multiples of kBucket, and aligning
  // the window keeps each bucket entirely inside one phase.
  TimeSeriesSampler sampler(testbed.sim(), kBucket);
  sampler.Watch("client.txn_commits");
  const SimTime t0 =
      (testbed.sim().now() + kBucket - 1) / kBucket * kBucket;
  testbed.sim().RunUntil(t0);
  sampler.Start(kEnd - t0);
  testbed.StartEngines();
  // Record across all three phases so the report carries the end-to-end
  // latency distribution (retries during the outage land in the tail).
  testbed.SetRecording(true);
  const testing::FaultPlan plan = Fig15Plan(kFailAt, kRecoverAt);
  std::printf("fault plan: %s\n", plan.Serialize().c_str());
  for (const testing::FaultAction& action : plan.actions) {
    testbed.sim().RunUntil(action.at);
    FireAction(testbed, action);
  }
  testbed.sim().RunUntil(kEnd);
  const RunMetrics overall = testbed.Collect(kEnd);
  testbed.StopEngines(kSecond);
  report.AddRun("overall", overall);

  Banner("Transaction throughput over time");
  Table table({"t(s)", "tput(MTPS)", "phase"});
  // Per-phase aggregate rates for the machine-readable report.
  std::uint64_t phase_commits[3] = {0, 0, 0};
  const TimeSeriesStore& series = sampler.store();
  for (std::size_t b = 0; b < series.num_buckets(); ++b) {
    const SimTime t = t0 + b * kBucket;
    const int phase_idx = t < kFailAt ? 0 : t < kRecoverAt ? 1 : 2;
    const char* phase = phase_idx == 0   ? "normal"
                        : phase_idx == 1 ? "FAILED"
                                         : "recovered";
    phase_commits[phase_idx] += series.Delta(0, b);
    table.AddRow({Fmt(series.BucketTimeSeconds(b), 2),
                  Fmt(series.Value(0, b) / 1e6, 3), phase});
  }
  table.Print();
  report.AttachTimeSeries(series);
  // The "normal" phase is measured from the sampler's (aligned) start, not
  // from t=0: buckets before t0 don't exist.
  const double phase_sec[3] = {
      static_cast<double>(kFailAt - t0) / kSecond,
      static_cast<double>(kRecoverAt - kFailAt) / kSecond,
      static_cast<double>(kEnd - kRecoverAt) / kSecond};
  const char* phase_names[3] = {"normal", "failed", "recovered"};
  for (int i = 0; i < 3; ++i) {
    report.AddRun(phase_names[i]).txn_mtps =
        phase_commits[i] / phase_sec[i] / 1e6;
  }
  std::printf(
      "\nExpected shape (paper): throughput drops to ~zero the moment the\n"
      "switch stops, and returns to the pre-failure level essentially\n"
      "instantly upon reactivation (leases clear stale state).\n");
  return report.Write() ? 0 : 1;
}
