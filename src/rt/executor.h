// N-worker real-time executor with spin-then-park idling.
//
// Each worker repeatedly invokes the body with its worker index; the body
// returns whether it found work (drained any mailbox). Workers that come
// up empty first spin (lowest latency while traffic flows), then yield,
// then park on a per-worker condvar with a bounded timeout — so an idle
// backend burns no CPU, yet a missed doorbell can only delay work by the
// park timeout, never hang it. Producers ring WakeWorker(core) after
// enqueueing; the doorbell is one relaxed load of that worker's parked
// flag unless the worker is actually parked, and waking core w never
// disturbs the other workers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace netlock::rt {

class RtExecutor {
 public:
  struct Options {
    int num_workers = 1;
    /// Empty polls before yielding, then yields before parking.
    int spin_rounds = 256;
    int yield_rounds = 16;
    std::chrono::microseconds park_timeout{100};
  };

  /// `body(worker)` processes one round of work; returns true if any.
  RtExecutor(Options options, std::function<bool(int)> body);
  ~RtExecutor();

  RtExecutor(const RtExecutor&) = delete;
  RtExecutor& operator=(const RtExecutor&) = delete;

  void Start();
  /// Signals shutdown and joins. Workers exit after their next empty round,
  /// so everything already enqueued when Stop() is called gets processed.
  void Stop();

  /// Targeted doorbell: wakes one worker, and only touches its lock when
  /// the worker may actually be parked (one relaxed load otherwise). A
  /// producer that just filled core w's mailbox rings this instead of the
  /// broadcast Wake() so an idle fleet isn't herded awake per submit.
  void WakeWorker(int worker) {
    ParkSlot& slot = *park_slots_[static_cast<std::size_t>(worker)];
    if (!slot.parked.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.cv.notify_one();
  }

  /// Broadcast doorbell: wakes every parked worker. Cheap when nobody is.
  void Wake() {
    for (int w = 0; w < options_.num_workers; ++w) WakeWorker(w);
  }

  int num_workers() const { return options_.num_workers; }
  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Cumulative idle-behavior counters for one worker. Each cell has a
  /// single writer (the worker itself, relaxed load+store); readers (the
  /// stats poller, netlock_top) see slightly stale but tear-free values.
  struct IdleStats {
    std::uint64_t work_rounds = 0;  ///< Body invocations that found work.
    std::uint64_t spins = 0;        ///< Empty rounds burned spinning.
    std::uint64_t yields = 0;       ///< Empty rounds that yielded.
    std::uint64_t parks = 0;        ///< Condvar parks (timeout or doorbell).
  };
  IdleStats idle_stats(int worker) const {
    const WorkerStats& w = *stats_[static_cast<std::size_t>(worker)];
    IdleStats out;
    out.work_rounds = w.work_rounds.load(std::memory_order_relaxed);
    out.spins = w.spins.load(std::memory_order_relaxed);
    out.yields = w.yields.load(std::memory_order_relaxed);
    out.parks = w.parks.load(std::memory_order_relaxed);
    return out;
  }

 private:
  /// One cacheline per worker so the single-writer increments never
  /// false-share.
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> work_rounds{0};
    std::atomic<std::uint64_t> spins{0};
    std::atomic<std::uint64_t> yields{0};
    std::atomic<std::uint64_t> parks{0};
  };

  /// Per-worker park state, cache-line isolated: each worker parks on its
  /// own condvar, so a doorbell for core w contends only with worker w —
  /// never a herd — and the `parked` flag gives producers the cheap
  /// "may be parked" test.
  struct alignas(64) ParkSlot {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> parked{false};
  };

  void WorkerMain(int worker);

  Options options_;
  std::function<bool(int)> body_;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<ParkSlot>> park_slots_;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<WorkerStats>> stats_;
};

}  // namespace netlock::rt
