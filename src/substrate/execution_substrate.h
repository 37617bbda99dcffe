// The rt backend's clock: monotonic wall-clock nanoseconds.
//
// The lock protocol (LockEngine, sessions, lease discipline) needs exactly
// one thing from its runtime that differs between "simulated rack" and
// "real threads": what time it is. The simulator's components read
// `Simulator::now()`; the rt backend (RtLockService, RtClientPool) reads an
// RtSubstrate — so the same compiled protocol code produces simulated-time
// numbers under the Simulator and wall-clock MLPS numbers under rt.
//
// Scheduling deliberately stays out of the clock: the simulator schedules
// by event queue, the rt backend by worker threads draining SPSC
// mailboxes, and the protocol core (see core/lock_engine.h) is written to
// need neither — callers drive it and pass the time in.
#pragma once

#include <chrono>

#include "common/types.h"

namespace netlock {

/// Real time: monotonic nanoseconds since construction. Thread-safe (the
/// anchor is immutable after construction).
class RtSubstrate {
 public:
  RtSubstrate() : start_(std::chrono::steady_clock::now()) {}

  SimTime Now() const {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace netlock
