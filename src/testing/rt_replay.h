// Oracle replay of the real-time backend's linearized event log.
//
// The rt service (record_events mode) emits a per-core protocol event
// stream merged by sequence number — a linearization consistent with each
// core's processing order (accept before grant, release before the grants
// it cascades). Replaying it through the single-threaded LockOracle turns
// any overlap or FIFO inversion in the multicore run into a counted,
// logged violation. Shared by tests/rt_backend_test and the telemetry
// violation tests (which drop selected releases to *seed* a violation and
// then assert the flight recorder dumps).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "rt/rt_lock_service.h"
#include "testing/lock_oracle.h"

namespace netlock::testing {

struct RtReplayOptions {
  /// Events for which this returns true are skipped — the hook used to
  /// seed violations (e.g. drop a release so the next grant overlaps).
  std::function<bool(const rt::RtEvent&)> drop;
  /// When the replay ends with violations and a recorder + prefix are set,
  /// the recorder is dumped to <dump_prefix>.txt/.json — the same autopsy
  /// artifact a live oracle failure produces.
  FlightRecorder* recorder = nullptr;
  std::string dump_prefix;
};

/// Replays `events` through `oracle`; returns oracle.violations() +
/// oracle.fifo_violations() after the replay.
inline std::uint64_t ReplayRtEventsThroughOracle(
    const std::vector<rt::RtEvent>& events, LockOracle& oracle,
    const RtReplayOptions& options = {}) {
  for (const rt::RtEvent& ev : events) {
    if (options.drop && options.drop(ev)) continue;
    switch (ev.kind) {
      case rt::RtEvent::Kind::kAccept:
        oracle.OnSwitchAccept(ev.lock, ev.txn, ev.mode, /*cls=*/0, false);
        break;
      case rt::RtEvent::Kind::kGrant:
        oracle.OnGrant(ev.lock, ev.mode, ev.txn);
        oracle.OnSwitchGrant(ev.lock, ev.txn, ev.mode);
        break;
      case rt::RtEvent::Kind::kRelease:
        oracle.OnRelease(ev.lock, ev.mode, ev.txn);
        break;
      case rt::RtEvent::Kind::kAbort:
        // Policy abort (refusal, die, wound, or cancel removal): the pair
        // holds nothing from here on. OnWound also covers the never-granted
        // cases — it just removes queue/holder state that isn't there.
        oracle.OnWound(ev.lock, ev.txn);
        break;
    }
  }
  const std::uint64_t violations =
      oracle.violations() + oracle.fifo_violations();
  if (violations > 0 && options.recorder != nullptr &&
      !options.dump_prefix.empty()) {
    options.recorder->Dump(options.dump_prefix);
  }
  return violations;
}

}  // namespace netlock::testing
