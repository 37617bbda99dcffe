#include "sim/event_queue.h"

#include <utility>

#include "common/check.h"

namespace netlock {

SimTime EventQueue::NextTime() const {
  NETLOCK_CHECK(!heap_.empty());
  return heap_.top().when;
}

EventQueue::Popped EventQueue::PopEntry() {
  NETLOCK_CHECK(!heap_.empty());
  const Entry top = heap_.top();
  heap_.pop();
  return Popped{top.when, top.seq, top.slot};
}

void EventQueue::InvokeAndRecycle(std::uint32_t slot) {
  // Invoke in place — no relocation of the (packet-sized) callable. The
  // slot is recycled only after the call returns; re-entrant pushes grow
  // the deque without moving this storage.
  slots_[slot]();
  slots_[slot].Reset();
  free_slots_.push_back(slot);
}

}  // namespace netlock
