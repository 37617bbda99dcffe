// Scale-out — multi-rack sharding (beyond the paper's single-rack setup).
//
// NetLock is sized per rack: one ToR switch plus a couple of lock servers.
// This bench shards one uniform lock workload across 1 / 2 / 4 racks via
// the client-side LockDirectory (core/sharding.h) and measures aggregate
// lock throughput plus per-rack balance.
//
// The regime is chosen so the racks are the bottleneck: the lock set wants
// about twice as many switch slots as one switch has, so a single rack
// serves most requests from its (much slower) lock servers, while four
// racks hold the whole working set switch-resident. Scaling racks then
// buys both switch memory and server CPU, and aggregate throughput grows
// near-linearly.
//
// Each rack count is an independent simulation: the sweep runs on
// ParallelSweep (--jobs=N), metrics merging back in task order so the JSON
// report is byte-identical to a serial run (wall-clock fields aside).
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

namespace netlock {
namespace {

struct RackPoint {
  int racks = 1;
  RunMetrics metrics;
  /// Per-rack grant counts (switch + server), for the balance extras.
  std::vector<std::uint64_t> rack_grants;
  std::vector<std::uint64_t> rack_switch_grants;
};

constexpr int kLocks = 8192;

void RunOne(RackPoint& point, bool quick, SimContext& context) {
  TestbedConfig config;
  config.context = &context;
  config.system = SystemKind::kNetLock;
  config.num_racks = point.racks;
  config.client_machines = 8;
  config.sessions_per_machine = 32;
  config.lock_servers = 2;
  config.server_config.cores = 2;
  // Per-rack switch memory covers ~a quarter of the working set's slot
  // demand (uniform demand wants ~2 slots per lock): one rack is
  // server-bound, four racks are fully switch-resident.
  config.switch_config.queue_capacity = 4096;
  config.switch_config.max_locks = kLocks;
  config.txn_config.think_time = 0;

  MicroConfig micro;
  micro.num_locks = kLocks;
  config.workload_factory = MicroFactory(micro);

  Testbed testbed(config);
  testbed.sharded().InstallKnapsack(
      UniformMicroDemands(micro, testbed.num_engines()));
  point.metrics =
      testbed.Run(/*warmup=*/10 * kMillisecond,
                  /*measure=*/quick ? 25 * kMillisecond : 80 * kMillisecond);
  for (int r = 0; r < point.racks; ++r) {
    point.rack_switch_grants.push_back(testbed.sharded().SwitchGrants(r));
    point.rack_grants.push_back(testbed.sharded().SwitchGrants(r) +
                                testbed.sharded().ServerGrants(r));
  }
  testbed.StopEngines(kSecond);
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("scaleout_racks", ParseBenchOptions(argc, argv));
  const bool quick = report.quick();
  std::printf(
      "NetLock scale-out — sharding the lock space across racks\n"
      "%d uniform locks, 8 client machines, 2 lock servers per rack,\n"
      "4096 switch slots per rack.\n",
      kLocks);

  std::vector<RackPoint> points;
  for (const int racks : {1, 2, 4}) {
    RackPoint point;
    point.racks = racks;
    points.push_back(point);
  }
  ParallelSweep(static_cast<int>(points.size()), report.options().jobs,
                [&](int i, SimContext& context) {
                  RackPoint& p = points[static_cast<std::size_t>(i)];
                  std::fprintf(stderr, "  scaleout racks=%d...\n", p.racks);
                  RunOne(p, quick, context);
                },
                report.context());

  Banner("Aggregate lock throughput (MLPS) vs rack count");
  Table table({"racks", "MLPS", "speedup", "switch%", "balance"});
  const double base = points[0].metrics.LockThroughputMrps();
  for (const RackPoint& p : points) {
    // Balance: the least-loaded rack's share of the most-loaded rack's
    // grants (1.0 = perfectly even).
    std::uint64_t lo = p.rack_grants.empty() ? 0 : p.rack_grants[0];
    std::uint64_t hi = lo;
    std::uint64_t total_switch = 0;
    for (std::size_t r = 0; r < p.rack_grants.size(); ++r) {
      lo = std::min(lo, p.rack_grants[r]);
      hi = std::max(hi, p.rack_grants[r]);
      total_switch += p.rack_switch_grants[r];
    }
    const double balance =
        hi == 0 ? 0.0 : static_cast<double>(lo) / static_cast<double>(hi);
    const double switch_share =
        p.metrics.lock_grants == 0
            ? 0.0
            : static_cast<double>(p.metrics.switch_grants) /
                  static_cast<double>(p.metrics.lock_grants);
    table.AddRow({std::to_string(p.racks),
                  Fmt(p.metrics.LockThroughputMrps(), 2),
                  Fmt(base > 0 ? p.metrics.LockThroughputMrps() / base : 0.0,
                      2),
                  Fmt(100.0 * switch_share, 1), Fmt(balance, 2)});

    BenchRun& run =
        report.AddRun("racks=" + std::to_string(p.racks), p.metrics);
    run.extra.emplace_back("racks", static_cast<double>(p.racks));
    run.extra.emplace_back("rack_balance", balance);
    run.extra.emplace_back("switch_share", switch_share);
    for (std::size_t r = 0; r < p.rack_grants.size(); ++r) {
      run.extra.emplace_back("rack" + std::to_string(r) + "_grants",
                             static_cast<double>(p.rack_grants[r]));
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: one rack is server-bound (its switch holds only a\n"
      "quarter of the working set); four racks hold everything\n"
      "switch-resident and aggregate throughput scales near-linearly with\n"
      "balanced per-rack load.\n");
  return report.Write() ? 0 : 1;
}
