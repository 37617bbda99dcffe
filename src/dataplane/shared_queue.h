// The shared queue: multiple register arrays pooled into one index space
// (paper Section 4.2, Figure 5).
//
// Instead of statically binding a register array to each lock — which
// fragments memory and caps a queue at one stage's array size — slots
// 0..capacity-1 map onto a row of arrays, possibly in different pipeline
// stages, and each lock owns a runtime-adjustable contiguous region. Slot
// index i lives in array i / array_size at offset i % array_size.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dataplane/slot.h"
#include "switchsim/pipeline.h"

namespace netlock {

class SharedQueue {
 public:
  /// Builds ceil(capacity / array_size) register arrays starting at pipeline
  /// stage `first_stage`, one stage per array (mirroring the prototype's
  /// layout where pooled arrays occupy consecutive stages).
  SharedQueue(Pipeline& pipeline, int first_stage, std::uint32_t capacity,
              std::uint32_t array_size);

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t array_size() const { return array_size_; }
  std::size_t num_arrays() const { return arrays_.size(); }

  /// Data-plane slot read; one access to the owning array for this pass.
  const QueueSlot& Read(PacketPass& pass, std::uint32_t index);

  /// Data-plane slot write; one access to the owning array for this pass.
  void Write(PacketPass& pass, std::uint32_t index, const QueueSlot& slot);

  /// Data-plane read-modify-write of one slot (single ALU access).
  template <typename Fn>
  auto ReadModifyWrite(PacketPass& pass, std::uint32_t index, Fn&& fn) {
    NETLOCK_CHECK(index < capacity_);
    return arrays_[index / array_size_]->ReadModifyWrite(
        pass, index % array_size_, std::forward<Fn>(fn));
  }

  /// Control-plane access (queue migration, failure recovery, tests).
  QueueSlot& ControlAt(std::uint32_t index);

  /// Clears all slots (switch restart loses register state).
  void ControlClear();

  /// Advances an index circularly within [bounds.left, bounds.right).
  static std::uint32_t Next(std::uint32_t index, const LockBounds& bounds) {
    NETLOCK_DCHECK(index >= bounds.left && index < bounds.right);
    const std::uint32_t next = index + 1;
    return next == bounds.right ? bounds.left : next;
  }

  /// The index `steps` positions after `index`, circularly within bounds.
  static std::uint32_t Advance(std::uint32_t index, std::uint32_t steps,
                               const LockBounds& bounds) {
    NETLOCK_DCHECK(index >= bounds.left && index < bounds.right);
    return bounds.left + (index - bounds.left + steps) % bounds.size();
  }

 private:
  std::uint32_t capacity_;
  std::uint32_t array_size_;
  std::vector<std::unique_ptr<RegisterArray<QueueSlot>>> arrays_;
};

}  // namespace netlock
