// The discrete-event simulator driving every experiment.
//
// This replaces the paper's physical testbed clock: all components (clients,
// the programmable switch model, lock servers, RDMA NICs) schedule work here
// and observe `now()`. Runs are fully deterministic given the workload seeds.
//
// Each simulator reports into a SimContext (metrics + tracing): the one its
// caller passes, or else a private one it owns. Runs on distinct contexts
// share no state, which is what lets sweeps execute on a thread pool (see
// harness/experiment.h).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/sim_context.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace netlock {

class Simulator {
 public:
  /// `context` = nullptr gives this simulator a private context of its own.
  explicit Simulator(SimContext* context = nullptr)
      : owned_context_(context == nullptr ? std::make_unique<SimContext>()
                                          : nullptr),
        context_(context != nullptr ? *context : *owned_context_),
        events_metric_(context_.metrics().Counter("sim.events_processed")),
        depth_metric_(context_.metrics().Gauge("sim.pending_events")) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The telemetry context every component of this simulation reports into.
  SimContext& context() const { return context_; }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules fn to run `delay` nanoseconds from now. Perfect-forwarded so
  /// the callable is constructed once, directly in its event-queue slot.
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    queue_.Push(now_ + delay, std::forward<F>(fn));
    MaybeSampleDepth();
  }

  /// Schedules fn at an absolute time (must be >= now()).
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    NETLOCK_CHECK(when >= now_);
    queue_.Push(when, std::forward<F>(fn));
    MaybeSampleDepth();
  }

  /// Reserves a place in the event order without scheduling; see
  /// EventQueue::ReserveSeq.
  std::uint64_t ReserveSeq() { return queue_.ReserveSeq(); }

  /// Schedules fn at absolute time `when` (>= now()) under a sequence
  /// number from ReserveSeq, so it fires where an event scheduled at
  /// reservation time would have.
  template <typename F>
  void ScheduleReserved(SimTime when, std::uint64_t seq, F&& fn) {
    NETLOCK_CHECK(when >= now_);
    queue_.PushReserved(when, seq, std::forward<F>(fn));
    MaybeSampleDepth();
  }

  /// Runs events until the queue empties.
  void Run();

  /// Runs events with timestamp <= deadline; afterwards now() == deadline.
  void RunUntil(SimTime deadline);

  /// Runs a single event if one is pending; returns false when idle.
  bool Step();

  /// Flushes the sampled sim.pending_events gauge: sets the current depth
  /// and raises the high-water mark to the queue's exact maximum. Run and
  /// RunUntil call this on exit; call it directly before reading the gauge
  /// mid-run (e.g. from a time-series sampler).
  void ReconcileDepthMetric() {
    depth_metric_.Set(queue_.Size());
    depth_metric_.ObserveHighWater(queue_.max_depth());
  }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return queue_.Size(); }

  /// Exact maximum pending-event depth ever reached.
  std::size_t max_pending_events() const { return queue_.max_depth(); }

 private:
  /// Schedule() is the hottest line in the codebase: updating the depth
  /// gauge per push (two branches + a store through a pointer into another
  /// cache line) cost ~10% of simulator throughput. The gauge is now
  /// refreshed every kDepthSampleInterval pushes; exactness of the
  /// high-water mark is restored by ReconcileDepthMetric().
  static constexpr std::uint32_t kDepthSampleInterval = 1024;

  void MaybeSampleDepth() {
    if (++pushes_since_depth_sample_ >= kDepthSampleInterval) {
      pushes_since_depth_sample_ = 0;
      depth_metric_.Set(queue_.Size());
    }
  }

  SimTime now_ = 0;
  EventQueue queue_;
  std::uint64_t events_processed_ = 0;
  std::uint32_t pushes_since_depth_sample_ = 0;
  std::unique_ptr<SimContext> owned_context_;
  SimContext& context_;
  MetricCounter& events_metric_;
  MetricGauge& depth_metric_;  ///< Pending-event depth (hwm = high water).
};

/// Calls `step` every `interval`, first one interval from now, until it
/// returns true. Each scheduled event owns `step` and moves it into the next
/// one, so it is destroyed right after the call that returns true (the
/// control plane's drain and re-home polls).
template <typename Step>
void PollUntil(Simulator& sim, SimTime interval, Step step) {
  sim.Schedule(interval, [&sim, interval, step = std::move(step)]() mutable {
    if (!step()) PollUntil(sim, interval, std::move(step));
  });
}

}  // namespace netlock
