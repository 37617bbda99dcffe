// Request-lifecycle tracing over the deterministic simulator.
//
// Every lock request is identified by its (lock id, transaction id) pair —
// already carried in every wire message — so spans recorded independently
// by the client, the network, the switch pipeline, the shared queue, and
// the lock server correlate into one request timeline without widening the
// wire header. The exporter writes Chrome trace-event JSON that loads
// directly in chrome://tracing and Perfetto, with one track (tid) per
// pipeline stage.
//
// Design goals, in order:
//   1. Zero cost when disabled. `enabled()` is a single branch on a plain
//      bool; components cache their context's TraceLog pointer once (like
//      metrics.h instruments) and guard every span computation behind it.
//   2. Determinism. Timestamps come from Simulator::now(), sampling is a
//      pure hash of the request id, and the exporter stable-sorts by
//      timestamp — two identical runs produce byte-identical traces.
//   3. Bounded memory. Recording stops at a capacity cap (events beyond it
//      are counted, not stored), so tracing a long bench cannot OOM.
//
// Thread-safety: recording (Push) appends to a per-thread span buffer, so
// real-thread backends (src/rt/) record without taking any lock on the hot
// path — a thread's first Push registers its buffer under a mutex, and
// afterwards a record is a thread-local cache hit plus a vector append.
// The capacity cap is enforced through a shared budget counter claimed in
// chunks, so the shared cacheline is touched once per kBudgetChunk events
// (exact cap single-threaded; within one chunk per thread concurrently).
// Buffers are merged, in registration order, when anything reads the log
// (size / events / ToJson / Clear) — collection is a teardown-time
// operation: call it with no recorders running. A single-threaded run has
// exactly one buffer, so flushing preserves insertion order and the
// exporter's byte-identical determinism. Enable / Disable / SetCapacity /
// pid labels are setup-time operations.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"

namespace netlock {

/// One track per request-path stage; exported as the event's tid with a
/// thread_name metadata record, so Perfetto groups spans by stage.
enum class TraceTrack : std::uint8_t {
  kClient = 1,    ///< Session issue/RTT/retransmit events.
  kNetwork = 2,   ///< Per-packet wire spans (send -> deliver).
  kPipeline = 3,  ///< Switch pipeline passes/resubmits.
  kQueue = 4,     ///< Shared-queue enqueue and wait-for-grant spans.
  kServer = 5,    ///< Lock-server service, overflow (q2) and grants.
};

const char* ToString(TraceTrack track);

/// Optional numeric argument attached to an event ({"args": {key: value}}).
struct TraceArg {
  const char* key = nullptr;  ///< Static string; nullptr = absent.
  std::uint64_t value = 0;
};

/// One recorded event. `name`/category strings must be static (string
/// literals): events store the pointer, never a copy.
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'i';  ///< 'X' complete, 'i' instant, 'b'/'e' async pair.
  TraceTrack track = TraceTrack::kClient;
  /// Exported as the trace-event pid: groups spans by rack (process). 0 is
  /// the default group (clients + fabric in single-rack runs); multi-rack
  /// harnesses label each rack's switch/servers with pid = rack + 1.
  std::uint32_t pid = 0;
  SimTime ts = 0;   ///< Start time (ns of simulated time).
  SimTime dur = 0;  ///< Duration, 'X' events only.
  std::uint64_t id = 0;  ///< Request correlation id (0 = none).
  TraceArg arg0;
  TraceArg arg1;
};

class TraceLog {
 public:
  TraceLog() : id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {}
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Starts recording. `sample_every` = N records roughly 1/N of requests
  /// (selected by request-id hash, so every component keeps or drops the
  /// same request); 1 records everything.
  void Enable(std::uint32_t sample_every = 1);
  void Disable();
  bool enabled() const { return enabled_; }
  std::uint32_t sample_every() const { return sample_every_; }

  /// Stable correlation id for one lock request. Retransmissions share it:
  /// they are the same logical request.
  static std::uint64_t RequestId(LockId lock, TxnId txn) {
    std::uint64_t h = (txn + 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(lock) * 0xff51afd7ed558ccdull);
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 29;
    return h | 1;  // Never 0: 0 means "no id".
  }

  /// True when this request's events should be recorded (enabled and the
  /// request falls in the sample). The deciding hash is shared by every
  /// component, so a sampled request is traced end to end.
  bool Sampled(LockId lock, TxnId txn) const {
    if (!enabled_) return false;
    // The low bit of the id is forced to 1 (see RequestId), so the
    // sampling decision uses the bits above it.
    return sample_every_ <= 1 ||
           (RequestId(lock, txn) >> 1) % sample_every_ == 0;
  }

  /// Caps stored events; further records are counted in dropped().
  void SetCapacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }

  // --- Per-rack labels (multi-rack topologies) ---

  /// Every event recorded from now on is stamped with this pid. Rack-owned
  /// components read the current pid at construction and re-assert it (via
  /// PidScope) when they handle a packet, so one shared log splits cleanly
  /// by rack. Pid 0 is the default group (clients and the fabric).
  void SetCurrentPid(std::uint32_t pid) { current_pid_ = pid; }
  std::uint32_t current_pid() const { return current_pid_; }

  /// Names a pid for the exporter's process_name metadata ("rack0", ...).
  /// `name` must be a static string.
  void SetPidName(std::uint32_t pid, const char* name);

  /// RAII pid for one handler invocation: restores the previous pid on
  /// destruction, so nested handlers (switch forwarding to a server within
  /// the same event cascade) label correctly.
  class PidScope {
   public:
    PidScope(TraceLog& log, std::uint32_t pid)
        : log_(log), saved_(log.current_pid()) {
      log_.SetCurrentPid(pid);
    }
    ~PidScope() { log_.SetCurrentPid(saved_); }
    PidScope(const PidScope&) = delete;
    PidScope& operator=(const PidScope&) = delete;

   private:
    TraceLog& log_;
    std::uint32_t saved_;
  };

  // --- Recording (no-ops when disabled) ---

  void Instant(TraceTrack track, const char* name, SimTime ts,
               std::uint64_t id = 0, TraceArg a0 = {}, TraceArg a1 = {});

  /// A span with both endpoints known at record time ('X' complete event).
  /// Most spans here are retrospective: the component emits them when the
  /// span ends (e.g., queue wait is emitted at grant, stamped with the
  /// enqueue time).
  void Complete(TraceTrack track, const char* name, SimTime start,
                SimTime end, std::uint64_t id = 0, TraceArg a0 = {},
                TraceArg a1 = {});

  /// Async begin/end pair correlated by (name, id): spans whose end is not
  /// known at begin time, e.g. the whole client-observed request lifetime.
  void AsyncBegin(TraceTrack track, const char* name, SimTime ts,
                  std::uint64_t id);
  void AsyncEnd(TraceTrack track, const char* name, SimTime ts,
                std::uint64_t id);

  // --- Inspection / export (flushes per-thread buffers; call with no
  // recorders running) ---

  std::size_t size() const {
    Flush();
    return merged_.size();
  }
  std::uint64_t dropped() const {
    Flush();
    return dropped_;
  }
  const std::vector<TraceEvent>& events() const {
    Flush();
    return merged_;
  }

  /// Drops all recorded events (enable state is unchanged).
  void Clear();

  /// Chrome trace-event JSON (object form with "traceEvents"), events
  /// stable-sorted by timestamp. Timestamps are exported in microseconds
  /// (the trace-event unit) with nanosecond precision.
  std::string ToJson() const;

  /// Writes ToJson() to `path`. Returns false (with a message on stderr)
  /// on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  /// Shared-capacity budget claimed per thread in chunks: the only shared
  /// write a recording thread makes, amortized to once per kBudgetChunk
  /// events.
  static constexpr std::size_t kBudgetChunk = 256;

  struct ThreadBuffer {
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
    std::size_t budget = 0;  ///< Capacity claimed but not yet used.
  };

  void Push(TraceEvent event);
  /// The calling thread's buffer (registered under mu_ on first use, then
  /// found via a thread-local cache keyed by the log's instance id).
  ThreadBuffer& LocalBuffer();
  /// Merges every thread buffer into merged_ in registration order.
  void Flush() const;

  /// Process-unique instance ids validate the thread-local buffer cache
  /// (a destroyed log's id never matches a live one).
  static inline std::atomic<std::uint64_t> next_id_{1};
  const std::uint64_t id_;

  /// Guards buffer registration and collection — never taken by a Push
  /// that hits the thread-local cache.
  mutable std::mutex mu_;
  bool enabled_ = false;
  std::uint32_t sample_every_ = 1;
  std::uint32_t current_pid_ = 0;
  std::size_t capacity_ = 2'000'000;
  /// Events stored across all buffers + merged_ (budget-claim counter).
  std::atomic<std::size_t> stored_{0};
  mutable std::uint64_t dropped_ = 0;
  mutable std::vector<TraceEvent> merged_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<std::thread::id, ThreadBuffer*> by_thread_;
  /// pid -> process name for the exporter (sorted for determinism).
  std::vector<std::pair<std::uint32_t, const char*>> pid_names_;
};

}  // namespace netlock
