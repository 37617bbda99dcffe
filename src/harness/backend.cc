#include "harness/backend.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "harness/testbed.h"
#include "rt/rt_client.h"
#include "rt/stats_poller.h"
#include "substrate/execution_substrate.h"

namespace netlock {
namespace {

std::unique_ptr<WorkloadGenerator> MakeMicroWorkload(
    const BackendRunConfig& config) {
  if (config.unordered_workload) {
    return std::make_unique<UnorderedMicroWorkload>(config.workload);
  }
  return std::make_unique<MicroWorkload>(config.workload);
}

TestbedConfig SimConfigFor(const BackendRunConfig& config) {
  TestbedConfig tb;
  tb.system = SystemKind::kServerOnly;
  tb.context = config.context;
  tb.client_machines = 1;
  tb.sessions_per_machine = config.sessions;
  tb.lock_servers = 1;
  tb.seed = config.seed;
  tb.workload_factory = [config](int) { return MakeMicroWorkload(config); };
  tb.txn_config.think_time = 0;
  tb.txn_config.inter_txn_gap = 0;
  tb.txn_config.preserve_workload_order = config.unordered_workload;
  tb.server_config.deadlock_policy = config.deadlock_policy;
  // No client-side timeouts: a retry would abort the transaction and skew
  // the request stream away from the rt run's, breaking exact comparison.
  tb.client_retry_timeout = 10 * kSecond;
  tb.lease = 10 * kSecond;
  return tb;
}

/// Sums the per-engine policy counters and the servers' abort stats into
/// the result (sim backend).
void CollectSimPolicyCounters(Testbed& testbed, BackendRunResult& result) {
  for (int i = 0; i < testbed.num_engines(); ++i) {
    result.aborts += testbed.engine(i).aborts();
    result.wounds += testbed.engine(i).wounds();
    result.committed_lock_grants += testbed.engine(i).committed_lock_grants();
  }
  ServerOnlyManager& manager = testbed.server_only();
  for (int s = 0; s < manager.num_servers(); ++s) {
    const LockServer::Stats& stats = manager.server(s).stats();
    result.service_aborts += stats.aborts_refused + stats.wounds;
  }
}

void DrainSim(Testbed& testbed) {
  // Lease polling keeps the event queue nonempty forever, so run in slices
  // until the engines go idle rather than until the queue drains.
  for (;;) {
    bool all_idle = true;
    for (int i = 0; i < testbed.num_engines(); ++i) {
      if (!testbed.engine(i).idle()) {
        all_idle = false;
        break;
      }
    }
    if (all_idle) return;
    testbed.sim().RunUntil(testbed.sim().now() + kMillisecond);
  }
}

struct RtRig {
  explicit RtRig(const BackendRunConfig& config)
      : owned_context(config.context == nullptr
                          ? std::make_unique<SimContext>()
                          : nullptr),
        context(config.context != nullptr ? *config.context : *owned_context),
        service(ServiceOptions(config), substrate),
        pool(service, substrate, ClientConfig(config),
             [config](int) { return MakeMicroWorkload(config); }) {}

  static rt::RtLockService::Options ServiceOptions(
      const BackendRunConfig& config) {
    NETLOCK_CHECK(config.rt_client_threads >= 1);
    NETLOCK_CHECK(config.sessions % config.rt_client_threads == 0);
    rt::RtLockService::Options options;
    options.cores = config.rt_cores;
    options.num_clients = config.rt_client_threads;
    options.record_events = config.rt_record_events;
    if (config.rt_spin_rounds >= 0) {
      options.spin_rounds = config.rt_spin_rounds;
    }
    if (config.rt_yield_rounds >= 0) {
      options.yield_rounds = config.rt_yield_rounds;
    }
    if (config.rt_park_timeout_us >= 0) {
      options.park_timeout =
          std::chrono::microseconds(config.rt_park_timeout_us);
    }
    options.deadlock_policy = config.deadlock_policy;
    options.telemetry = config.rt_telemetry;
    options.recorder = config.rt_flight_recorder;
    return options;
  }

  static rt::RtClientConfig ClientConfig(const BackendRunConfig& config) {
    rt::RtClientConfig cc;
    cc.sessions_per_client = config.sessions / config.rt_client_threads;
    cc.txns_per_session = config.txns_per_session;
    cc.seed = config.seed;
    cc.telemetry = config.rt_telemetry;
    return cc;
  }

  void Finish(BackendRunResult& result) {
    pool.Join();
    service.Stop();
    // The rig owns the run, so it folds both sharded registries into the
    // run's context once the writers have stopped. Idle instruments (the
    // deadlock-policy counters of a policy-free run) stay out of it.
    context.metrics().MergeFrom(service.metrics(), /*skip_idle=*/true);
    context.metrics().MergeFrom(pool.metrics(), /*skip_idle=*/true);
    result.metrics = pool.Collect();
    result.commits = pool.TotalCommits();
    result.aborts = pool.TotalAborts();
    result.wounds = pool.TotalWounds();
    result.committed_lock_grants = pool.TotalCommittedLockGrants();
    const rt::RtLockService::Stats totals = service.TotalStats();
    result.service_grants = totals.grants;
    result.service_aborts = totals.aborts + totals.wounds;
    result.residual_queue_depth = service.TotalQueueDepth();
    result.events = service.DrainEvents();
    result.core_grants.reserve(static_cast<std::size_t>(service.cores()));
    for (int c = 0; c < service.cores(); ++c) {
      result.core_grants.push_back(service.CoreStats(c).grants);
    }
  }

  RtSubstrate substrate;
  std::unique_ptr<SimContext> owned_context;  ///< Set when config has none.
  SimContext& context;
  rt::RtLockService service;
  rt::RtClientPool pool;
};

/// One live snapshot frame in the netlock_top text protocol:
///   snap ts=<ns> cores=<N> clients=<M>
///   core <i> grants= requests= batches= depth= work= spins= yields= parks=
///   lat <lock|txn> p50= p90= p99= p999= n=
///   end
std::string BuildRtSnapshot(RtRig& rig, const MetricHistogram& lock_latency,
                            const MetricHistogram& txn_latency) {
  std::ostringstream out;
  char line[256];
  const int cores = rig.service.cores();
  std::snprintf(line, sizeof(line),
                "snap ts=%" PRIu64 " cores=%d clients=%d\n",
                static_cast<std::uint64_t>(rig.substrate.Now()), cores,
                rig.service.num_clients());
  out << line;
  for (int c = 0; c < cores; ++c) {
    const rt::RtLockService::Stats s = rig.service.CoreStats(c);
    const rt::RtExecutor::IdleStats idle = rig.service.executor().idle_stats(c);
    std::snprintf(line, sizeof(line),
                  "core %d grants=%" PRIu64 " requests=%" PRIu64
                  " batches=%" PRIu64 " depth=%zu work=%" PRIu64
                  " spins=%" PRIu64 " yields=%" PRIu64 " parks=%" PRIu64 "\n",
                  c, s.grants, s.requests, s.batches,
                  rig.service.MailboxDepthApprox(c), idle.work_rounds,
                  idle.spins, idle.yields, idle.parks);
    out << line;
  }
  for (const auto& [name, histogram] :
       {std::pair<const char*, const MetricHistogram*>{"lock", &lock_latency},
        {"txn", &txn_latency}}) {
    const LogHistogram merged = histogram->Merged();
    std::snprintf(line, sizeof(line),
                  "lat %s p50=%" PRIu64 " p90=%" PRIu64 " p99=%" PRIu64
                  " p999=%" PRIu64 " n=%" PRIu64 "\n",
                  name,
                  merged.Percentile(0.50), merged.Percentile(0.90),
                  merged.Percentile(0.99), merged.Percentile(0.999),
                  merged.count());
    out << line;
  }
  out << "end\n";
  return out.str();
}

/// Builds, watches, and starts the measurement-window poller for a timed
/// rt run. Returns nullptr when telemetry is off.
std::unique_ptr<rt::RtStatsPoller> StartRtPoller(
    RtRig& rig, const BackendRunConfig& config, SimTime measure) {
  if (!config.rt_telemetry) return nullptr;
  rt::RtStatsPoller::Options po;
  SimTime interval = config.rt_poll_interval;
  if (interval == 0) {
    interval = measure / 20;
    if (interval < 5 * kMillisecond) interval = 5 * kMillisecond;
  }
  po.interval = std::chrono::nanoseconds(interval);
  po.socket_path = config.rt_stats_socket;
  auto poller = std::make_unique<rt::RtStatsPoller>(po);
  MetricsRegistry& service = rig.service.metrics();
  MetricsRegistry& clients = rig.pool.metrics();
  for (const char* name : {"rt.requests", "rt.grants", "rt.releases"}) {
    poller->Watch(name, service.Counter(name));
  }
  poller->Watch("rt.commits", clients.Counter("rt.commits"));
  poller->WatchGauge("rt.mailbox_depth", service.Gauge("rt.mailbox_depth"));
  const MetricHistogram& lock_latency = clients.Histogram("rt.lock_latency");
  const MetricHistogram& txn_latency = clients.Histogram("rt.txn_latency");
  poller->WatchP99("rt.lock_latency.p99_ns", lock_latency);
  poller->SetSnapshotProvider(
      [&rig, lock = &lock_latency, txn = &txn_latency]() {
        return BuildRtSnapshot(rig, *lock, *txn);
      });
  poller->Start(rig.substrate.Now());
  return poller;
}

}  // namespace

const char* ToString(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSim:
      return "sim";
    case BackendKind::kRt:
      return "rt";
  }
  return "?";
}

bool ParseBackendKind(const std::string& text, BackendKind* out) {
  if (text == "sim") {
    *out = BackendKind::kSim;
    return true;
  }
  if (text == "rt") {
    *out = BackendKind::kRt;
    return true;
  }
  return false;
}

BackendRunResult RunMicroFixedCount(BackendKind kind,
                                    const BackendRunConfig& config) {
  NETLOCK_CHECK(config.txns_per_session > 0);
  BackendRunResult result;
  if (kind == BackendKind::kSim) {
    TestbedConfig tb = SimConfigFor(config);
    tb.txn_config.max_txns = config.txns_per_session;
    Testbed testbed(tb);
    testbed.SetRecording(true);
    const SimTime start = testbed.sim().now();
    testbed.StartEngines();
    DrainSim(testbed);
    result.metrics = testbed.Collect(testbed.sim().now() - start);
    result.commits = result.metrics.txn_commits;
    result.service_grants = testbed.server_only().Grants();
    CollectSimPolicyCounters(testbed, result);
    return result;
  }
  RtRig rig(config);
  rig.pool.SetRecording(true);
  rig.service.Start();
  const SimTime start = rig.substrate.Now();
  rig.pool.Start();
  rig.Finish(result);
  const SimTime elapsed = rig.substrate.Now() - start;
  result.metrics.duration = elapsed;
  result.wall_seconds = static_cast<double>(elapsed) / 1e9;
  return result;
}

BackendRunResult RunMicroTimed(BackendKind kind,
                               const BackendRunConfig& config,
                               SimTime warmup, SimTime measure) {
  BackendRunResult result;
  if (kind == BackendKind::kSim) {
    Testbed testbed(SimConfigFor(config));
    result.metrics = testbed.Run(warmup, measure);
    testbed.StopEngines();
    result.commits = result.metrics.txn_commits;
    result.service_grants = testbed.server_only().Grants();
    CollectSimPolicyCounters(testbed, result);
    return result;
  }
  BackendRunConfig timed = config;
  timed.txns_per_session = 0;  // Sessions run until StopIssuing().
  RtRig rig(timed);
  rig.service.Start();
  rig.pool.Start();
  std::this_thread::sleep_for(std::chrono::nanoseconds(warmup));
  // The poller covers only the measurement window, so the time series is
  // warm-up-free like the RunMetrics recorders.
  std::unique_ptr<rt::RtStatsPoller> poller =
      StartRtPoller(rig, timed, measure);
  rig.pool.SetRecording(true);
  const SimTime t0 = rig.substrate.Now();
  std::this_thread::sleep_for(std::chrono::nanoseconds(measure));
  rig.pool.SetRecording(false);
  const SimTime t1 = rig.substrate.Now();
  rig.pool.StopIssuing();
  if (poller != nullptr) poller->Stop();
  rig.Finish(result);
  if (poller != nullptr) {
    result.has_time_series = true;
    // The copy outlives the rig's registries: keep its buckets only.
    result.time_series = poller->store();
    result.time_series.Detach();
  }
  result.metrics.duration = t1 - t0;
  result.wall_seconds = static_cast<double>(t1 - t0) / 1e9;
  return result;
}

}  // namespace netlock
