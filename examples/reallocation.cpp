// Dynamic reallocation demo (paper Section 4.3): the workload's hot set
// shifts at runtime; the control plane's demand counters notice, Algorithm 3
// recomputes the allocation, and locks migrate between the switch and the
// lock servers with the pause -> drain -> move protocol.
//
//   $ ./example_reallocation
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/testbed.h"

using namespace netlock;

namespace {

// A workload whose hot set is switchable at runtime: phase 0 hammers locks
// [0, 64), phase 1 hammers [1000, 1064).
struct ShiftingConfig {
  int* phase;
};

class ShiftingWorkload final : public WorkloadGenerator {
 public:
  explicit ShiftingWorkload(const int* phase) : phase_(phase) {}

  void NextInto(Rng& rng, TxnSpec& out) override {
    out.locks.clear();
    const LockId base = *phase_ == 0 ? 0 : 1000;
    out.locks.push_back(
        {base + static_cast<LockId>(rng.NextBounded(64)),
         rng.NextBool(0.3) ? LockMode::kShared : LockMode::kExclusive});
  }
  LockId lock_space() const override { return 1064; }

 private:
  const int* phase_;
};

}  // namespace

int main() {
  std::printf("NetLock dynamic reallocation demo\n");
  static int phase = 0;

  TestbedConfig config;
  config.system = SystemKind::kNetLock;
  config.client_machines = 2;
  config.sessions_per_machine = 4;
  config.lock_servers = 1;
  // A small switch: only one phase's hot set fits.
  config.switch_config.queue_capacity = 256;
  config.workload_factory = [&](int) {
    return std::make_unique<ShiftingWorkload>(&phase);
  };
  Testbed testbed(config);
  auto& manager = testbed.netlock();
  manager.control_plane().StartLeasePolling();

  auto report = [&](const char* label) {
    const auto locks = manager.lock_switch().table().InstalledLocks();
    LockId lo = kInvalidLock, hi = 0;
    for (const LockId l : locks) {
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
    std::printf("%-28s switch locks=%zu (range %u..%u), switch grants=%llu, "
                "server grants=%llu\n",
                label, locks.size(), locks.empty() ? 0 : lo,
                locks.empty() ? 0 : hi,
                static_cast<unsigned long long>(manager.SwitchGrants()),
                static_cast<unsigned long long>(manager.ServerGrants()));
  };

  // Phase 0: profile, allocate, serve from the switch.
  ProfileAndInstall(testbed, 256, false, 30 * kMillisecond);
  report("after phase-0 allocation:");
  testbed.Run(5 * kMillisecond, 50 * kMillisecond);
  report("after phase-0 run:");

  // The workload shifts: locks 1000..1063 become hot; the old hot set is
  // now idle. The switch is serving the wrong locks.
  phase = 1;
  testbed.sim().RunUntil(testbed.sim().now() + 50 * kMillisecond);
  report("after shift (stale alloc):");

  // The control plane reallocates from its demand counters: old locks move
  // out (pause, drain, hand to server), new hot locks move in.
  bool done = false;
  manager.control_plane().Reallocate(256, [&]() { done = true; });
  testbed.sim().RunUntil(testbed.sim().now() + 100 * kMillisecond);
  std::printf("reallocation complete: %s\n", done ? "yes" : "no");
  report("after reallocation:");

  testbed.sim().RunUntil(testbed.sim().now() + 50 * kMillisecond);
  report("after phase-1 run:");
  testbed.StopEngines(kSecond);
  return 0;
}
