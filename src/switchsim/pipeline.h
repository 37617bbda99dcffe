// Programmable-switch data plane model.
//
// This is the architectural substrate the NetLock module is written against,
// standing in for the Tofino ASIC. It enforces the two constraints that
// shaped the paper's design (Section 4.2):
//
//   1. A packet pass may access each register array at most once, and a
//      single read-modify-write counts as that one access. This is why the
//      paper needs resubmit to dequeue-then-inspect a queue head.
//   2. Arrays live in pipeline stages and a pass visits stages in order, so
//      an array in an earlier stage cannot be touched after one in a later
//      stage. This is why per-priority queues are laid out one per stage.
//
// `resubmit` sends the packet through the pipeline again (a fresh pass) with
// carried metadata, exactly like the Tofino resubmit primitive the paper
// uses to grant consecutive shared locks.
//
// Violations abort in debug builds (NETLOCK_DCHECK), turning data-plane
// programming errors into immediate test failures rather than silently
// producing designs that could not compile to hardware.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"

namespace netlock {

class Pipeline;

/// Tracks one packet's trip(s) through the pipeline: which arrays were
/// touched this pass, the current stage watermark, and the resubmit count.
class PacketPass {
 public:
  std::uint32_t pass_index() const { return pass_index_; }
  std::uint64_t token() const { return token_; }
  int last_stage() const { return last_stage_; }

 private:
  friend class Pipeline;
  template <typename T>
  friend class RegisterArray;

  std::uint64_t token_ = 0;   // Unique per pass; stamps array accesses.
  std::uint32_t pass_index_ = 0;
  int last_stage_ = -1;
  Pipeline* pipeline_ = nullptr;
};

/// Factory/registry for register arrays and packet passes.
class Pipeline {
 public:
  /// `num_stages`: hardware stage budget (Tofino-class switches have 10-20
  /// stages; the paper relies on this for priority queues).
  /// `max_resubmits`: bound on pipeline re-entries per packet. The E->S
  /// grant chain in Algorithm 2 resubmits once per granted shared lock, so
  /// this must be at least the largest shared-grant batch; 0 disables the
  /// check (logically unbounded, as recirculation is in practice).
  /// `metrics`: the registry the pass/resubmit/access counters report into
  /// (a switch passes its simulation's, `sim.context().metrics()`).
  explicit Pipeline(MetricsRegistry& metrics, int num_stages = 12,
                    std::uint32_t max_resubmits = 0)
      : num_stages_(num_stages),
        max_resubmits_(max_resubmits),
        passes_metric_(&metrics.Counter("switchsim.passes")),
        resubmits_metric_(&metrics.Counter("switchsim.resubmits")),
        accesses_metric_(&metrics.Counter("switchsim.register_accesses")) {}

  int num_stages() const { return num_stages_; }

  /// Begins a fresh pass for a newly arrived packet.
  PacketPass BeginPass();

  /// Re-enters the pipeline: resets per-pass access state, keeps the packet
  /// identity, increments the resubmit counter.
  void Resubmit(PacketPass& pass);

  std::uint64_t total_resubmits() const { return total_resubmits_; }

 private:
  template <typename T>
  friend class RegisterArray;

  int RegisterArrayInStage(int stage) {
    NETLOCK_CHECK(stage >= 0 && stage < num_stages_);
    return next_array_id_++;
  }

  void CountRegisterAccess() { accesses_metric_->Inc(); }

  int num_stages_;
  std::uint32_t max_resubmits_;
  int next_array_id_ = 0;
  std::uint64_t next_token_ = 1;
  std::uint64_t total_resubmits_ = 0;
  // "passes" counts every pipeline traversal (BeginPass and Resubmit both).
  MetricCounter* passes_metric_;
  MetricCounter* resubmits_metric_;
  MetricCounter* accesses_metric_;
};

/// A stateful register array bound to one pipeline stage. Mirrors the P4
/// `register` extern: fixed size, index-addressed, one access per pass.
template <typename T>
class RegisterArray {
 public:
  RegisterArray(Pipeline& pipeline, int stage, std::size_t size,
                T initial = T{})
      : pipeline_(pipeline),
        stage_(stage),
        array_id_(pipeline.RegisterArrayInStage(stage)),
        cells_(size, initial) {}

  std::size_t size() const { return cells_.size(); }
  int stage() const { return stage_; }

  /// Reads cell `idx`. Counts as this pass's single access to the array.
  const T& Read(PacketPass& pass, std::size_t idx) {
    NoteAccess(pass, idx);
    return cells_[idx];
  }

  /// Writes cell `idx`. Counts as this pass's single access to the array.
  void Write(PacketPass& pass, std::size_t idx, T value) {
    NoteAccess(pass, idx);
    cells_[idx] = std::move(value);
  }

  /// Atomic read-modify-write of cell `idx` — one ALU operation in hardware,
  /// and therefore one access. `fn` receives a mutable reference and may
  /// return a value to carry out of the stage.
  template <typename Fn>
  auto ReadModifyWrite(PacketPass& pass, std::size_t idx, Fn&& fn) {
    NoteAccess(pass, idx);
    return fn(cells_[idx]);
  }

  /// Reads the row of `width` cells starting at `first` — one access, as
  /// for a register whose cell is a struct of `width` lanes (a lock's
  /// per-class lanes, which hardware would lay out one per stage and visit
  /// in order within the pass).
  std::span<const T> ReadRow(PacketPass& pass, std::size_t first,
                             std::size_t width) {
    NoteAccess(pass, first + width - 1);
    return {cells_.data() + first, width};
  }

  /// Read-modify-write of the row of `width` cells starting at `first`;
  /// `fn` receives the row as a mutable span. One access.
  template <typename Fn>
  auto ReadModifyWriteRow(PacketPass& pass, std::size_t first,
                          std::size_t width, Fn&& fn) {
    NoteAccess(pass, first + width - 1);
    return fn(std::span<T>(cells_.data() + first, width));
  }

  /// Control-plane access: the switch CPU reads/writes registers out-of-band
  /// (the paper's control plane polls lease timestamps and rewrites queue
  /// boundaries this way). Not subject to per-pass constraints.
  T& ControlRead(std::size_t idx) {
    NETLOCK_CHECK(idx < cells_.size());
    return cells_[idx];
  }
  void ControlWrite(std::size_t idx, T value) {
    NETLOCK_CHECK(idx < cells_.size());
    cells_[idx] = std::move(value);
  }
  std::span<T> ControlRow(std::size_t first, std::size_t width) {
    NETLOCK_CHECK(first + width <= cells_.size());
    return {cells_.data() + first, width};
  }

 private:
  void NoteAccess(PacketPass& pass, std::size_t idx) {
    NETLOCK_CHECK(idx < cells_.size());
    NETLOCK_DCHECK(pass.pipeline_ == &pipeline_);
    // One access per array per pass.
    NETLOCK_DCHECK(last_access_token_ != pass.token_);
    // Stage ordering: cannot go backwards within a pass.
    NETLOCK_DCHECK(stage_ >= pass.last_stage_);
    last_access_token_ = pass.token_;
    pass.last_stage_ = stage_;
    pipeline_.CountRegisterAccess();
  }

  Pipeline& pipeline_;
  int stage_;
  [[maybe_unused]] int array_id_;
  std::uint64_t last_access_token_ = 0;
  std::vector<T> cells_;
};

}  // namespace netlock
