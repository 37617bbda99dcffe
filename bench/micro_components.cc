// Component microbenchmarks (google-benchmark): wall-clock speed of the
// building blocks — header serialization, shared-queue slot access,
// Algorithm 2 acquire/release in the data-plane model, Algorithm 3
// allocation, Zipf sampling, and the event queue. These are sanity checks
// that the simulator itself is fast enough to drive the figure benches,
// not paper results.
//
// The binary also runs a short traced NetLock rack and prints the
// per-stage acquire-latency breakdown (wire / pipeline / queue wait /
// server service) computed from the recorded spans.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/tracelog.h"
#include "core/lock_engine.h"
#include "core/memory_alloc.h"
#include "dataplane/switch_dataplane.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "harness/trace_analysis.h"
#include "net/lock_wire.h"
#include "rt/rt_lock_service.h"
#include "rt/spsc_ring.h"
#include "sim/simulator.h"
#include "workload/tpcc.h"

namespace netlock {
namespace {

void BM_LockHeaderSerialize(benchmark::State& state) {
  LockHeader hdr;
  hdr.lock_id = 42;
  hdr.txn_id = 7;
  Packet pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdr.SerializeTo(pkt));
  }
}
BENCHMARK(BM_LockHeaderSerialize);

void BM_LockHeaderParse(benchmark::State& state) {
  LockHeader hdr;
  hdr.lock_id = 42;
  Packet pkt;
  hdr.SerializeTo(pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LockHeader::Parse(pkt));
  }
}
BENCHMARK(BM_LockHeaderParse);

// The google-benchmark loops run a wall-clock-adaptive number of
// iterations, so each builds its Simulator without a context (it owns a
// private one): their telemetry must not leak into the report's registry
// dump, which stays byte-identical across runs (only fixed-iteration
// scenarios report into the report's context).

void BM_EventQueuePushPop(benchmark::State& state) {
  Simulator sim;
  std::uint64_t t = 0;
  for (auto _ : state) {
    sim.Schedule((t++ % 64), []() {});
    sim.Step();
  }
}
BENCHMARK(BM_EventQueuePushPop);

/// A callable padded to N bytes; models event closures of varying capture
/// size (tiny timer lambdas up to full packet-delivery closures).
template <std::size_t N>
struct SizedEvent {
  std::uint64_t* sink;
  unsigned char pad[N - sizeof(std::uint64_t*)] = {};
  void operator()() const { ++*sink; }
};

/// Push/pop with a round-robin mix of event sizes — the arena must stay
/// allocation-free across all of them (every size fits kInlineCapacity).
void BM_EventQueueMixedSizes(benchmark::State& state) {
  Simulator sim;
  std::uint64_t sink = 0;
  std::uint64_t t = 0;
  for (auto _ : state) {
    switch (t & 3) {
      case 0: sim.Schedule(t % 64, SizedEvent<16>{&sink}); break;
      case 1: sim.Schedule(t % 64, SizedEvent<48>{&sink}); break;
      case 2: sim.Schedule(t % 64, SizedEvent<88>{&sink}); break;
      default: sim.Schedule(t % 64, SizedEvent<104>{&sink}); break;
    }
    sim.Step();
    ++t;
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueMixedSizes);

/// The simulator's hottest real path: Network::Send scheduling a packet
/// delivery (80-byte Packet + pointer, stored inline in the event arena)
/// and the event loop delivering it.
void BM_EventQueuePacketDelivery(benchmark::State& state) {
  Simulator sim;
  Network net(sim, /*default_one_way_latency=*/1000);
  std::uint64_t delivered = 0;
  const NodeId receiver = net.AddNode([&](const Packet&) { ++delivered; });
  const NodeId sender = net.AddNode([](const Packet&) {});
  Packet pkt;
  pkt.src = sender;
  pkt.dst = receiver;
  pkt.set_size(32);
  for (auto _ : state) {
    net.Send(pkt);
    sim.Step();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePacketDelivery);

void BM_SwitchAcquireRelease(benchmark::State& state) {
  Simulator sim;
  Network net(sim, 1000);
  LockSwitchConfig config;
  config.queue_capacity = 1024;
  config.array_size = 256;
  config.max_locks = 64;
  LockSwitch lock_switch(net, config);
  const NodeId client = net.AddNode([](const Packet&) {});
  const NodeId server = net.AddNode([](const Packet&) {});
  lock_switch.InstallLock(1, server, 16);
  LockHeader acquire;
  acquire.op = LockOp::kAcquire;
  acquire.lock_id = 1;
  acquire.mode = LockMode::kExclusive;
  acquire.client_node = client;
  LockHeader release = acquire;
  release.op = LockOp::kRelease;
  const Packet acquire_pkt = MakeLockPacket(client, lock_switch.node(),
                                            acquire);
  const Packet release_pkt = MakeLockPacket(client, lock_switch.node(),
                                            release);
  for (auto _ : state) {
    lock_switch.HandlePacket(acquire_pkt);
    lock_switch.HandlePacket(release_pkt);
    // Drain the grant deliveries.
    while (sim.Step()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SwitchAcquireRelease);

void BM_KnapsackAllocate(benchmark::State& state) {
  Rng rng(1);
  std::vector<LockDemand> demands;
  for (int i = 0; i < state.range(0); ++i) {
    demands.push_back(LockDemand{
        static_cast<LockId>(i), static_cast<double>(rng.NextBounded(1000)),
        static_cast<std::uint32_t>(1 + rng.NextBounded(32))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(KnapsackAllocate(demands, 100'000));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KnapsackAllocate)->Arg(1000)->Arg(10000)->Arg(100000);

/// Single-push/pop through the rt mailbox ring: one release-store per item
/// on each side, the baseline PushBatch is measured against.
void BM_SpscRingPushSingle(benchmark::State& state) {
  rt::SpscRing<rt::RtRequest> ring(1024);
  rt::RtRequest req;
  req.lock = 42;
  rt::RtRequest out[64];
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(ring.TryPush(req));
    benchmark::DoNotOptimize(ring.PopBatch(out, 64));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpscRingPushSingle);

/// Batched push through the same ring: one release-store publishes the
/// whole batch (the rt clients' submit-flush path).
void BM_SpscRingPushBatch(benchmark::State& state) {
  rt::SpscRing<rt::RtRequest> ring(1024);
  rt::RtRequest batch[64];
  for (auto& r : batch) r.lock = 42;
  rt::RtRequest out[64];
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.PushBatch(batch, 64));
    benchmark::DoNotOptimize(ring.PopBatch(out, 64));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpscRingPushBatch);

/// Counts grants without delivering anywhere: isolates the engine itself.
struct NullGrantSink final : public GrantSink {
  void DeliverGrant(LockId, const QueueSlot&) override { ++grants; }
  std::uint64_t grants = 0;
};

/// Steady-state acquire/release against a fixed lock set with constant
/// queue depth 3 — every release cascades a grant to the next waiter, the
/// contended-lock hot path of both the sim server and the rt backend.
void BM_LockEngineAcquireRelease(benchmark::State& state) {
  NullGrantSink sink;
  LockEngine engine(sink);
  constexpr LockId kLocks = 256;
  constexpr int kDepth = 3;
  // Per-lock FIFO txn ids: entry seq S of lock L is (L << 32 | S).
  const auto txn_of = [](LockId lock, TxnId seq) {
    return (static_cast<TxnId>(lock) << 32) | seq;
  };
  std::vector<TxnId> head_seq(kLocks, 0);
  std::vector<TxnId> tail_seq(kLocks, 0);
  // Prime each lock with kDepth exclusive entries (head granted).
  for (LockId lock = 0; lock < kLocks; ++lock) {
    for (int d = 0; d < kDepth; ++d) {
      QueueSlot slot;
      slot.txn_id = txn_of(lock, tail_seq[lock]++);
      slot.client_node = 1;
      engine.Acquire(lock, slot, 0);
    }
  }
  LockId lock = 0;
  SimTime now = 1;
  for (auto _ : state) {
    engine.Release(lock, LockMode::kExclusive,
                   txn_of(lock, head_seq[lock]++),
                   /*lease_forced=*/false, now);
    QueueSlot slot;
    slot.txn_id = txn_of(lock, tail_seq[lock]++);
    slot.client_node = 1;
    engine.Acquire(lock, slot, now);
    lock = (lock + 1) & (kLocks - 1);
    ++now;
  }
  benchmark::DoNotOptimize(sink.grants);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_LockEngineAcquireRelease);

/// The lock-server shape: a wide space of owned, idle locks (the long tail
/// the knapsack leaves on the servers). Each step acquires one idle lock,
/// granted at once, and releases it; the stride scatters consecutive steps
/// over unrelated states, so the engine's per-lock footprint shows up as
/// cache misses.
struct WideLockEngineLoop {
  static constexpr LockId kLocks = 100'000;
  static constexpr LockId kStride = 7919;  // Prime, so coprime with kLocks.

  /// Primes the engine with one acquire/release of every lock.
  WideLockEngineLoop() {
    for (LockId i = 0; i < kLocks; ++i) Step();
  }

  void Step() {
    QueueSlot slot;
    slot.txn_id = txn;
    slot.client_node = 1;
    engine.Acquire(lock, slot, txn);
    engine.Release(lock, LockMode::kExclusive, txn, /*lease_forced=*/false,
                   txn);
    ++txn;
    lock += kStride;
    if (lock >= kLocks) lock -= kLocks;
  }

  NullGrantSink sink;
  LockEngine engine{sink};
  LockId lock = 0;
  TxnId txn = 1;
};

void BM_LockEngineWideAcquireRelease(benchmark::State& state) {
  WideLockEngineLoop loop;
  for (auto _ : state) loop.Step();
  benchmark::DoNotOptimize(loop.sink.grants);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_LockEngineWideAcquireRelease);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1'000'000, 0.99);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_TpccNextTxn(benchmark::State& state) {
  TpccConfig config;
  config.warehouses = 100;
  TpccWorkload workload(config);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.Next(rng));
  }
}
BENCHMARK(BM_TpccNextTxn);

/// Runs a short contended NetLock rack with tracing on and decomposes the
/// client RTT into per-stage spans. Traces the measured window only (the
/// profiling phase is cleared), so means reflect steady state.
void RunLatencyBreakdown(BenchReport& report) {
  TraceLog& log = report.context().trace();
  const bool keep_trace = !report.options().trace_dir.empty();

  TestbedConfig config;
  config.context = &report.context();
  config.system = SystemKind::kNetLock;
  config.client_machines = 4;
  config.sessions_per_machine = 4;
  config.lock_servers = 1;
  MicroConfig micro;
  micro.num_locks = 100;
  micro.zipf_alpha = 0.9;  // Contention: a visible queue-wait share.
  config.workload_factory = MicroFactory(micro);
  Testbed testbed(config);
  ProfileAndInstall(testbed, config.switch_config.queue_capacity,
                    /*random_strawman=*/false,
                    /*profile_duration=*/10 * kMillisecond);

  log.Enable(keep_trace ? report.options().trace_sample : 1);
  log.Clear();
  testbed.StartEngines();
  testbed.sim().RunUntil(testbed.sim().now() + 50 * kMillisecond);
  testbed.StopEngines();
  log.Disable();

  const TraceBreakdown bd = ComputeBreakdown(log);
  PrintBreakdown("NetLock micro, 16 sessions, zipf 0.9", bd);
  BenchRun& run = report.AddRun("latency_breakdown");
  run.mean_ns = bd.rtt.MeanNs();
  run.samples = bd.rtt.count;
  run.extra.emplace_back("rtt_ns_mean", bd.rtt.MeanNs());
  run.extra.emplace_back("wire_ns_mean", bd.wire.MeanNs());
  run.extra.emplace_back("queue_wait_ns_mean", bd.queue_wait.MeanNs());
  run.extra.emplace_back("server_service_ns_mean",
                         bd.server_service.MeanNs());
  run.extra.emplace_back("pipeline_passes_mean", bd.pipeline_passes_mean);
  // Without --trace-dir nothing will consume the events; drop them.
  if (!keep_trace) log.Clear();
}

/// Measures steady-state packet-delivery throughput of the event loop with
/// a fixed iteration count and records events/sec in the JSON report. This
/// is the number the simulator-performance section of EXPERIMENTS.md
/// tracks; tests/event_alloc_test.cc proves the same loop allocation-free.
void RecordEventThroughput(BenchReport& report, bool quick) {
  Simulator sim(&report.context());
  Network net(sim, /*default_one_way_latency=*/1000);
  std::uint64_t delivered = 0;
  const NodeId receiver = net.AddNode([&](const Packet&) { ++delivered; });
  const NodeId sender = net.AddNode([](const Packet&) {});
  Packet pkt;
  pkt.src = sender;
  pkt.dst = receiver;
  pkt.set_size(32);
  const std::uint64_t iters = quick ? 2'000'000 : 8'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    net.Send(pkt);
    sim.Step();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double events_per_sec =
      secs > 0.0 ? static_cast<double>(iters) / secs : 0.0;
  std::printf("\nevent-loop packet throughput: %.0f events/sec (%llu hops)\n",
              events_per_sec, static_cast<unsigned long long>(delivered));
  BenchRun& run = report.AddRun("event_queue_packet_throughput");
  run.samples = iters;
  run.extra.emplace_back("events_per_sec", events_per_sec);
}

/// Fixed-iteration twins of BM_SpscRingPushSingle/PushBatch, recorded into
/// the JSON report so the batched-submit win is trackable PR over PR.
void RecordRingThroughput(BenchReport& report, bool quick) {
  constexpr std::size_t kBatch = 64;
  const std::uint64_t rounds = quick ? 200'000 : 2'000'000;
  rt::RtRequest batch[kBatch];
  for (auto& r : batch) r.lock = 42;
  rt::RtRequest out[kBatch];
  const auto run = [&](bool batched) {
    rt::SpscRing<rt::RtRequest> ring(1024);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < rounds; ++i) {
      if (batched) {
        benchmark::DoNotOptimize(ring.PushBatch(batch, kBatch));
      } else {
        for (std::size_t j = 0; j < kBatch; ++j) {
          benchmark::DoNotOptimize(ring.TryPush(batch[j]));
        }
      }
      benchmark::DoNotOptimize(ring.PopBatch(out, kBatch));
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return secs > 0.0 ? static_cast<double>(rounds * kBatch) / secs : 0.0;
  };
  const double single = run(false);
  const double batched = run(true);
  std::printf(
      "\nspsc ring: %.0f items/sec single-push, %.0f items/sec "
      "batch-push (x%.2f)\n",
      single, batched, single > 0 ? batched / single : 0.0);
  BenchRun& run_json = report.AddRun("spsc_ring_throughput");
  run_json.samples = rounds * kBatch;
  run_json.extra.emplace_back("ring_push_single_items_per_sec", single);
  run_json.extra.emplace_back("ring_push_batch_items_per_sec", batched);
}

/// Fixed-iteration twin of BM_LockEngineAcquireRelease (flat-table hot
/// path); ops/sec recorded in the JSON report. bench/README.md keeps the
/// pre-flat-table baseline for comparison.
void RecordLockEngineThroughput(BenchReport& report, bool quick) {
  NullGrantSink sink;
  LockEngine engine(sink);
  constexpr LockId kLocks = 256;
  constexpr int kDepth = 3;
  const auto txn_of = [](LockId lock, TxnId seq) {
    return (static_cast<TxnId>(lock) << 32) | seq;
  };
  std::vector<TxnId> head_seq(kLocks, 0);
  std::vector<TxnId> tail_seq(kLocks, 0);
  for (LockId lock = 0; lock < kLocks; ++lock) {
    for (int d = 0; d < kDepth; ++d) {
      QueueSlot slot;
      slot.txn_id = txn_of(lock, tail_seq[lock]++);
      slot.client_node = 1;
      engine.Acquire(lock, slot, 0);
    }
  }
  const std::uint64_t iters = quick ? 2'000'000 : 10'000'000;
  LockId lock = 0;
  SimTime now = 1;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    engine.Release(lock, LockMode::kExclusive,
                   txn_of(lock, head_seq[lock]++),
                   /*lease_forced=*/false, now);
    QueueSlot slot;
    slot.txn_id = txn_of(lock, tail_seq[lock]++);
    slot.client_node = 1;
    engine.Acquire(lock, slot, now);
    lock = (lock + 1) & (kLocks - 1);
    ++now;
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double ops_per_sec =
      secs > 0.0 ? static_cast<double>(iters * 2) / secs : 0.0;
  std::printf("lock engine acquire/release: %.0f ops/sec (%" PRIu64
              " grants)\n",
              ops_per_sec, sink.grants);
  BenchRun& run = report.AddRun("lock_engine_throughput");
  run.samples = iters * 2;
  run.extra.emplace_back("lock_engine_ops_per_sec", ops_per_sec);
}

/// Fixed-iteration twin of BM_LockEngineWideAcquireRelease.
void RecordLockEngineWideThroughput(BenchReport& report, bool quick) {
  WideLockEngineLoop loop;
  const std::uint64_t iters = quick ? 2'000'000 : 10'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) loop.Step();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double ops_per_sec =
      secs > 0.0 ? static_cast<double>(iters * 2) / secs : 0.0;
  std::printf("lock engine wide acquire/release (%u idle locks): %.0f "
              "ops/sec\n",
              WideLockEngineLoop::kLocks, ops_per_sec);
  BenchRun& run = report.AddRun("lock_engine_wide_throughput");
  run.samples = iters * 2;
  run.extra.emplace_back("lock_engine_wide_ops_per_sec", ops_per_sec);
}

}  // namespace
}  // namespace netlock

// Custom main instead of BENCHMARK_MAIN: the shared bench flags (--quick,
// --json-dir, --trace-dir, --trace-sample) must be stripped before
// google-benchmark parses the command line, and the registry dump is
// written like every other bench.
int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("micro_components", ParseBenchOptions(argc, argv));
  // The google-benchmark loops below hammer components millions of times;
  // tracing them would flood the log with junk timestamps. Only the
  // breakdown scenario afterwards records.
  report.context().trace().Disable();
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) continue;
    if (std::strncmp(argv[i], "--json-dir=", 11) == 0) continue;
    if (std::strcmp(argv[i], "--json-dir") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    if (std::strncmp(argv[i], "--trace-dir=", 12) == 0) continue;
    if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) continue;
    // --jobs is a sweep-parallelism flag; this bench has no sweeps and
    // google-benchmark would reject the unknown flag.
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) continue;
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  std::string min_time = "--benchmark_min_time=0.01";  // 1.7.x: plain double.
  if (report.quick()) bench_argv.push_back(min_time.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RecordEventThroughput(report, report.quick());
  RecordRingThroughput(report, report.quick());
  RecordLockEngineThroughput(report, report.quick());
  RecordLockEngineWideThroughput(report, report.quick());
  RunLatencyBreakdown(report);
  return report.Write() ? 0 : 1;
}
