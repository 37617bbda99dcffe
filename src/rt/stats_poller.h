// Background stats sampler for real-time runs.
//
// Simulated benches tick their TimeSeriesSampler as a simulation actor;
// the real-time backend has no event queue to hook, so this poller runs a
// wall-clock sampling thread instead: every interval it closes one
// TimeSeriesStore bucket, producing the same "time_series" section in
// BENCH_rt_mlps.json that the sim benches have. It only reads: the watched
// instruments live in the service's and client pool's sharded registries,
// and each tick aggregates their shards while the writers keep running.
//
// Optionally the poller serves live snapshots over a Unix-domain socket:
// every tick it writes one text frame (the SnapshotProvider's output,
// terminated by an "end" line) to each connected client. `tools/netlock_top`
// connects and renders the frames as a live per-core dashboard. The socket
// is strictly observe-only and best-effort: clients that stall or close are
// dropped, and a full client buffer never blocks the sampling tick.
//
// Thread-safety: configure (Watch* / SetSnapshotProvider) before
// Start; the store and polls() may be read after Stop. The sampling thread
// is the only writer to the store.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/timeseries.h"
#include "common/types.h"

namespace netlock::rt {

class RtStatsPoller {
 public:
  struct Options {
    /// Wall-clock sampling period; also the bucket width recorded in the
    /// time series.
    std::chrono::nanoseconds interval = std::chrono::milliseconds(10);
    /// Non-empty = serve live snapshot frames on this Unix-domain socket.
    std::string socket_path;
  };

  explicit RtStatsPoller(Options options);
  ~RtStatsPoller();

  RtStatsPoller(const RtStatsPoller&) = delete;
  RtStatsPoller& operator=(const RtStatsPoller&) = delete;

  /// Tracks a counter (per-bucket rate), a gauge (level) or a histogram's
  /// p99 (level) in the time series. Each must outlive the poller's ticks.
  void Watch(const std::string& name, const MetricCounter& counter);
  void WatchGauge(const std::string& name, const MetricGauge& gauge);
  void WatchP99(const std::string& name, const MetricHistogram& histogram);

  /// Builds the per-tick socket frame. Runs on the sampling thread; must
  /// only touch thread-safe state (instrument reads, stats snapshots).
  using SnapshotProvider = std::function<std::string()>;
  void SetSnapshotProvider(SnapshotProvider provider);

  /// Baselines the store at `start_time` (ns, the substrate clock) and
  /// launches the sampling thread.
  void Start(SimTime start_time);

  /// Stops the thread (no partial bucket), closes and unlinks the socket.
  void Stop();

  const TimeSeriesStore& store() const { return store_; }
  std::uint64_t polls() const { return polls_.load(std::memory_order_acquire); }

 private:
  void ThreadMain();
  void OpenSocket();
  void ServeClients(const std::string& frame);
  void CloseSocket();

  Options options_;
  SnapshotProvider provider_;
  TimeSeriesStore store_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
  std::atomic<std::uint64_t> polls_{0};

  int listen_fd_ = -1;
  std::vector<int> client_fds_;
};

}  // namespace netlock::rt
