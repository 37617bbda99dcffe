#include "rt/executor.h"

#include "common/check.h"

namespace netlock::rt {

RtExecutor::RtExecutor(Options options, std::function<bool(int)> body)
    : options_(options), body_(std::move(body)) {
  NETLOCK_CHECK(options_.num_workers >= 1);
  NETLOCK_CHECK(body_ != nullptr);
  stats_.reserve(static_cast<std::size_t>(options_.num_workers));
  park_slots_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    stats_.push_back(std::make_unique<WorkerStats>());
    park_slots_.push_back(std::make_unique<ParkSlot>());
  }
}

RtExecutor::~RtExecutor() { Stop(); }

void RtExecutor::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  running_.store(true, std::memory_order_release);
  threads_.reserve(options_.num_workers);
  for (int w = 0; w < options_.num_workers; ++w) {
    threads_.emplace_back([this, w]() { WorkerMain(w); });
  }
}

void RtExecutor::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);
  // Unconditional notify under each slot's lock: a worker holds its slot
  // lock from the running_ re-check to the wait, so it either sees the
  // store or receives the notify — no lost-shutdown window.
  for (auto& slot : park_slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void RtExecutor::WorkerMain(int worker) {
  WorkerStats& stats = *stats_[static_cast<std::size_t>(worker)];
  // Single-writer counters: load+store (no RMW) keeps the increment a
  // plain cached write.
  const auto bump = [](std::atomic<std::uint64_t>& cell) {
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  };
  int idle_rounds = 0;
  while (running_.load(std::memory_order_acquire)) {
    if (body_(worker)) {
      bump(stats.work_rounds);
      idle_rounds = 0;
      continue;
    }
    ++idle_rounds;
    if (idle_rounds <= options_.spin_rounds) {
      bump(stats.spins);
      continue;
    }
    if (idle_rounds <= options_.spin_rounds + options_.yield_rounds) {
      bump(stats.yields);
      std::this_thread::yield();
      continue;
    }
    // Park on this worker's own slot. The timeout bounds the cost of a
    // doorbell raced with parking: worst case, work waits one park_timeout.
    ParkSlot& slot = *park_slots_[static_cast<std::size_t>(worker)];
    std::unique_lock<std::mutex> lock(slot.mu);
    if (!running_.load(std::memory_order_acquire)) break;
    bump(stats.parks);
    slot.parked.store(true, std::memory_order_relaxed);
    slot.cv.wait_for(lock, options_.park_timeout);
    slot.parked.store(false, std::memory_order_relaxed);
    idle_rounds = 0;
  }
  // Shutdown drain: work enqueued before Stop()'s running_ store must be
  // processed, per the Stop() contract. Run until one empty round.
  while (body_(worker)) {
  }
}

}  // namespace netlock::rt
