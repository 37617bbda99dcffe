// Proves the real-time lock path is allocation-free in steady state, the
// rt twin of event_alloc_test: after a warmup that grows the flat lock
// table, the slab pool, and the staging buffers to working size, a
// submit -> drain -> grant -> poll -> release loop must perform ZERO global
// operator new/delete calls. This is the acceptance gate for the
// flat-table LockEngine and the staged-completion service path. The same
// gate covers the whole closed loop with the client pool driving it: a
// transaction is drawn into its session's reused spec. A second gate
// bounds the heap bytes an idle owned lock costs the engine, and a third
// the bytes a latency sample costs the clients' recorders.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

#include "common/stats.h"
#include "core/lock_engine.h"
#include "rt/rt_client.h"
#include "rt/rt_lock_service.h"
#include "substrate/execution_substrate.h"
#include "workload/micro.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_new_bytes{0};

}  // namespace

// Counting replacements for the global allocation functions (same
// technique as event_alloc_test). All forms funnel through malloc/free so
// replaced and library-internal paths stay compatible; only the counts
// (calls and requested bytes) matter.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) -
                                         1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
// Kept out of line: inlined into gtest's `new TestClass` cleanup, GCC
// flags its free() as mismatched with the (replaced) operator new.
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace netlock {
namespace {

/// Counts grants without touching the heap.
struct CountingSink final : public GrantSink {
  void DeliverGrant(LockId, const QueueSlot&) override { ++grants; }
  std::uint64_t grants = 0;
};

// The engine alone: acquire/release with queue depth 4 across a fixed lock
// set reuses the warmed slab chunks, table and state pool — no heap.
TEST(RtAllocTest, LockEngineSteadyStateDepthFourIsAllocationFree) {
  CountingSink sink;
  LockEngine engine(sink);
  constexpr LockId kLocks = 64;
  constexpr int kDepth = 4;

  TxnId next_txn = 1;
  SimTime now = 0;
  const auto round = [&] {
    for (LockId lock = 1; lock <= kLocks; ++lock) {
      TxnId txns[kDepth];
      for (int d = 0; d < kDepth; ++d) {
        txns[d] = next_txn++;
        QueueSlot slot;
        slot.mode = LockMode::kExclusive;
        slot.txn_id = txns[d];
        engine.Acquire(lock, slot, ++now);
      }
      for (int d = 0; d < kDepth; ++d) {
        EXPECT_EQ(engine.Release(lock, LockMode::kExclusive, txns[d],
                                 /*lease_forced=*/false, ++now),
                  ReleaseOutcome::kApplied);
      }
    }
  };

  // Warmup: grows the flat table and state pool to working size.
  for (int r = 0; r < 4; ++r) round();

  const std::uint64_t grants_before = sink.grants;
  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int r = 0; r < 500; ++r) round();
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(news_after - news_before, 0u)
      << "depth-4 acquire/release loop allocated on the heap";
  EXPECT_EQ(sink.grants - grants_before, 500u * kLocks * kDepth);
}

// The lock-server footprint: after one acquire/release of 100 000
// distinct locks the engine owns every lock, all idle. Each costs its state
// record, its share of the index and of vector doubling, and no queue
// storage (the queue's chunk went back to the slab when it drained). A
// second pass over the same locks reuses all of it.
TEST(RtAllocTest, IdleOwnedLocksCostTheirStateRecordOnly) {
  CountingSink sink;
  LockEngine engine(sink);
  constexpr LockId kLocks = 100'000;
  TxnId next_txn = 1;
  SimTime now = 0;
  const auto pass = [&] {
    for (LockId lock = 0; lock < kLocks; ++lock) {
      QueueSlot slot;
      slot.txn_id = next_txn++;
      engine.Acquire(lock, slot, ++now);
      EXPECT_EQ(engine.Release(lock, LockMode::kExclusive, slot.txn_id,
                               /*lease_forced=*/false, ++now),
                ReleaseOutcome::kApplied);
    }
  };

  const std::uint64_t bytes_before = g_new_bytes.load();
  pass();
  const std::uint64_t bytes_per_lock =
      (g_new_bytes.load() - bytes_before) / kLocks;
  EXPECT_EQ(engine.num_owned(), kLocks);
  EXPECT_EQ(engine.TotalQueueDepth(), 0u);
  // Vector doubling allocates up to twice the 64-byte record, and the
  // index adds its buckets: ~195 bytes in all. A 336-byte state carrying
  // inline queue slots costs ~900.
  EXPECT_LE(bytes_per_lock, 256u)
      << "heap bytes allocated per idle owned lock";

  const std::uint64_t news_before = g_news.load();
  pass();
  EXPECT_EQ(g_news.load() - news_before, 0u)
      << "second pass over owned locks allocated on the heap";
  EXPECT_EQ(sink.grants, 2u * kLocks);
}

// The rt clients record each grant's latency into a LatencyRecorder, and a
// run's peak memory is read off the process. Samples go into fixed-size
// blocks, so the heap bytes follow the sample count: a doubling vector
// would allocate ~21 bytes per sample over 100 000 samples, copying the
// whole set at every power of two.
TEST(RtAllocTest, LatencyRecorderGrowsByTheSample) {
  constexpr std::uint64_t kSamples = 100'000;
  const std::uint64_t bytes_before = g_new_bytes.load();
  {
    LatencyRecorder recorder;
    for (std::uint64_t i = 0; i < kSamples; ++i) {
      recorder.Record(static_cast<SimTime>((i * 7919) % kSamples));
    }
    EXPECT_EQ(recorder.Median(), static_cast<SimTime>(kSamples / 2 - 1));
  }
  EXPECT_LE(g_new_bytes.load() - bytes_before, 9 * kSamples)
      << "heap bytes allocated while recording " << kSamples << " samples";
}

// The whole service hot path — SubmitBatch into the mailbox ring, worker
// drain, engine cascade, staged-completion flush, PollCompletions — in
// steady state, with the worker thread live. Warmup covers both the
// engine's table and the staging buffers' reserved capacity.
TEST(RtAllocTest, RtServiceSteadyStateIsAllocationFree) {
  RtSubstrate substrate;
  rt::RtLockService::Options options;
  options.cores = 1;
  options.num_clients = 1;
  rt::RtLockService service(options, substrate);
  service.Start();

  constexpr int kBatch = 16;
  TxnId next_txn = 1;
  rt::RtRequest reqs[kBatch];
  rt::RtCompletion comps[kBatch];
  const auto round = [&] {
    for (int i = 0; i < kBatch; ++i) {
      reqs[i].op = rt::RtRequest::Op::kAcquire;
      reqs[i].mode = LockMode::kExclusive;
      reqs[i].lock = static_cast<LockId>(1 + i);
      reqs[i].txn = next_txn++;
      reqs[i].client = 0;
    }
    service.SubmitBatch(0, 0, reqs, kBatch);  // cores=1: all map to core 0.
    std::size_t got = 0;
    while (got < kBatch) {
      got += service.PollCompletions(0, comps + got, kBatch - got);
    }
    for (int i = 0; i < kBatch; ++i) {
      reqs[i].op = rt::RtRequest::Op::kRelease;
      reqs[i].lock = comps[i].lock;
      reqs[i].mode = comps[i].mode;
      reqs[i].txn = comps[i].txn;
    }
    service.SubmitBatch(0, 0, reqs, kBatch);
  };

  for (int r = 0; r < 64; ++r) round();
  service.WaitQuiesce();

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int r = 0; r < 500; ++r) round();
  service.WaitQuiesce();
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(news_after - news_before, 0u)
      << "rt submit->grant->poll->release loop allocated on the heap";

  service.Stop();
  const rt::RtLockService::Stats stats = service.TotalStats();
  EXPECT_EQ(stats.grants, static_cast<std::uint64_t>(564) * kBatch);
  EXPECT_EQ(stats.staged_completions, stats.grants);  // All staged path.
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

// The closed loop with the client pool driving it: micro-workload sessions
// draw each transaction into their reused spec, stage and flush requests,
// poll completions and commit, against live worker cores. With recording
// off (the RunMetrics recorders grow with their samples by design), once
// the lock table, slab and staging buffers reach working size, a window in
// which thousands of transactions commit performs ZERO heap allocations —
// with the always-on telemetry (sharded histograms, flight recorder) and
// without it.
void ExpectClientPoolSteadyStateAllocationFree(std::uint32_t locks_per_txn,
                                               bool telemetry) {
  SCOPED_TRACE(testing::Message() << "locks_per_txn=" << locks_per_txn
                                  << " telemetry=" << telemetry);
  RtSubstrate substrate;
  rt::RtLockService::Options options;
  options.cores = 2;
  options.num_clients = 2;
  options.telemetry = telemetry;
  rt::RtLockService service(options, substrate);
  rt::RtClientConfig client_config;
  client_config.sessions_per_client = 4;
  client_config.telemetry = telemetry;
  MicroConfig micro;
  micro.num_locks = 256;
  micro.locks_per_txn = locks_per_txn;
  rt::RtClientPool pool(service, substrate, client_config, [&](int) {
    return std::make_unique<MicroWorkload>(micro);
  });

  // The live grant count (sharded relaxed cells) paces the test thread,
  // which itself allocates nothing while it waits.
  const auto wait_for_grants = [&](std::uint64_t target) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (service.TotalStats().grants < target) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  };
  constexpr std::uint64_t kWarmupGrants = 20'000;
  constexpr std::uint64_t kWindowGrants = 20'000;

  service.Start();
  pool.Start();
  ASSERT_TRUE(wait_for_grants(kWarmupGrants)) << "warm-up stalled";
  const std::uint64_t grants_before = service.TotalStats().grants;
  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  const bool advanced = wait_for_grants(grants_before + kWindowGrants);
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  pool.StopIssuing();
  pool.Join();
  service.Stop();

  ASSERT_TRUE(advanced) << "the measured window stalled";
  EXPECT_EQ(news_after - news_before, 0u)
      << "client pool steady state allocated on the heap";
  EXPECT_GE(pool.TotalCommits(),
            (kWarmupGrants + kWindowGrants) / locks_per_txn);
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

TEST(RtAllocTest, RtClientPoolSteadyStateIsAllocationFree) {
  for (const bool telemetry : {true, false}) {
    for (const std::uint32_t locks_per_txn : {1u, 2u}) {
      ExpectClientPoolSteadyStateAllocationFree(locks_per_txn, telemetry);
    }
  }
}

}  // namespace
}  // namespace netlock
