// Per-core flight recorder: a fixed-size binary ring of recent protocol
// events, written lock-free on the real-time hot path and dumped for
// autopsy when something goes wrong.
//
// When the LockOracle flags a violation on a real-thread run — or a CHECK
// trips, or the process takes a fatal signal — a wall of aggregate counters
// says nothing about *which* grant overlapped *which* release. The flight
// recorder keeps the last `capacity` protocol events per core (op, lock,
// mode, txn, timestamp, per-shard sequence) in a preallocated ring; a write
// is a few relaxed stores plus one release store of the shard's cursor, so
// keeping it always-on costs a fraction of a request's work. On dump the
// rings are merged, sorted by timestamp, and written in both a
// human-readable text form and JSON; `tools/netlock_fr` pretty-prints
// either, and ParseText() loads the text form back for tooling and tests.
//
// Concurrency contract: one writer thread per shard (shard = worker core).
// Snapshot/dump may run concurrently with writers — an in-flight slot can
// surface torn (wrong ts/op for its seq), which is acceptable for a crash
// artifact; quiesced dumps (the oracle-violation path, after Stop()) are
// exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace netlock {

class FlightRecorder {
 public:
  enum class Op : std::uint8_t {
    kAccept = 0,             ///< Acquire entered the engine.
    kGrant = 1,              ///< Grant delivered.
    kRelease = 2,            ///< Release applied.
    kStaleRelease = 3,       ///< Release for an instance already gone.
    kMismatchedRelease = 4,  ///< Release mode/txn mismatched the holder.
    kMark = 5,               ///< Free-form marker (tests, tools).
    kAbort = 6,              ///< Deadlock policy refused/revoked an entry.
    kCancel = 7,             ///< Client withdrew a txn's queue entries.
  };
  static const char* ToString(Op op);
  static bool ParseOp(std::string_view text, Op* out);

  struct Event {
    std::uint64_t ts = 0;   ///< Substrate time (ns) when recorded.
    std::uint64_t seq = 0;  ///< Per-shard sequence (monotone within shard).
    LockId lock = kInvalidLock;
    TxnId txn = kInvalidTxn;
    std::uint32_t client = 0;  ///< Client-thread index (0 when n/a).
    std::uint16_t shard = 0;   ///< Writing core.
    Op op = Op::kMark;
    LockMode mode = LockMode::kExclusive;

    friend bool operator==(const Event&, const Event&) = default;
  };

  /// `capacity_per_shard` is rounded up to a power of two (>= 16).
  explicit FlightRecorder(int shards, std::size_t capacity_per_shard = 4096);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  int shards() const { return static_cast<int>(rings_.size()); }
  std::size_t capacity_per_shard() const { return capacity_; }

  /// Hot path: records one event into `shard`'s ring. Wait-free, one
  /// release store. Call only from the thread owning `shard`.
  void Record(int shard, Op op, LockId lock, LockMode mode, TxnId txn,
              std::uint64_t ts, std::uint32_t client = 0) {
    Ring& ring = *rings_[static_cast<std::size_t>(shard)];
    const std::uint64_t seq = ring.next.load(std::memory_order_relaxed);
    Event& slot = ring.slots[seq & ring.mask];
    // Relaxed atomic stores compile to plain moves on x86.
    Put(slot.ts, ts);
    Put(slot.seq, seq);
    Put(slot.lock, lock);
    Put(slot.txn, txn);
    Put(slot.client, client);
    Put(slot.shard, static_cast<std::uint16_t>(shard));
    Put(slot.op, op);
    Put(slot.mode, mode);
    // Publish after the slot is fully written: a concurrent Snapshot that
    // acquires `next` sees complete slots for every index below it.
    ring.next.store(seq + 1, std::memory_order_release);
  }

  /// Total events ever recorded (>= events retained).
  std::uint64_t recorded() const;

  /// The retained window, merged across shards and sorted by
  /// (ts, shard, seq) — a best-effort linearization for reading.
  std::vector<Event> Snapshot() const;

  // --- Dump / load ---

  std::string ToText() const;
  std::string ToJson() const;
  bool WriteText(const std::string& path) const;
  bool WriteJson(const std::string& path) const;
  /// Writes <prefix>.txt and <prefix>.json. Returns true if both succeed.
  bool Dump(const std::string& path_prefix) const;

  /// Parses a ToText()-format dump back into events (sorted as dumped).
  /// Returns false on malformed input; `out` then holds the events parsed
  /// so far. Shared by tools/netlock_fr and the tests.
  static bool ParseText(std::string_view text, std::vector<Event>* out);

  // --- Fatal-path dumping ---

  /// Arms this recorder as the process's crash recorder: a NETLOCK_CHECK
  /// failure or a fatal signal (SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT)
  /// dumps it to <prefix>.txt/.json before the process dies. Best effort:
  /// the dump allocates, which is not async-signal-safe — acceptable for a
  /// last-gasp artifact, and the handler re-raises with default disposition
  /// either way. One recorder may be armed at a time; arming replaces the
  /// previous one.
  void ArmFatalDump(std::string path_prefix);
  /// Disarms if this recorder is armed (call before destroying an armed
  /// recorder). The destructor disarms automatically.
  void DisarmFatalDump();

  /// Dumps the armed recorder now (idempotent: the first call wins). Used
  /// by the check/signal hooks; exposed for tests.
  static void FatalDumpNow();

 private:
  /// Slot fields are only touched through these, by Record and Snapshot,
  /// so the torn read the concurrency contract allows is not a data race.
  template <typename T>
  static void Put(T& field, T value) {
    std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
  }
  template <typename T>
  static T Get(T& field) {
    return std::atomic_ref<T>(field).load(std::memory_order_relaxed);
  }

  struct alignas(64) Ring {
    explicit Ring(std::size_t cap) : slots(cap), mask(cap - 1) {}
    std::vector<Event> slots;
    std::size_t mask;
    std::atomic<std::uint64_t> next{0};
  };

  std::vector<std::unique_ptr<Ring>> rings_;
  std::size_t capacity_ = 0;
};

}  // namespace netlock
