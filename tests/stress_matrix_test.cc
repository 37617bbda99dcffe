// Cross-system stress matrix: every lock-manager backend × contention
// level × lock-mode mix, each run checked by the mutual-exclusion oracle
// and for liveness. This is the broad safety net behind the per-figure
// calibration: no combination of system and workload shape may ever
// produce overlapping exclusive holders or stall outright.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.h"
#include "harness/testbed.h"
#include "testing/lock_oracle.h"

namespace netlock {
namespace {

struct MatrixParams {
  SystemKind system;
  LockId num_locks;         // Small = contended, large = uncontended.
  double shared_fraction;
  std::uint32_t locks_per_txn;
};

std::string ParamName(const ::testing::TestParamInfo<MatrixParams>& info) {
  std::ostringstream name;
  name << ToString(info.param.system) << "_l" << info.param.num_locks
       << "_s" << static_cast<int>(info.param.shared_fraction * 100)
       << "_k" << info.param.locks_per_txn;
  return name.str();
}

class StressMatrixTest : public ::testing::TestWithParam<MatrixParams> {};

TEST_P(StressMatrixTest, SafeAndLive) {
  const MatrixParams params = GetParam();
  TestbedConfig config;
  config.system = params.system;
  config.client_machines = 2;
  config.sessions_per_machine = 8;
  config.lock_servers = 2;
  config.txn_config.think_time = 5 * kMicrosecond;
  MicroConfig micro;
  micro.num_locks = params.num_locks;
  micro.shared_fraction = params.shared_fraction;
  micro.locks_per_txn = params.locks_per_txn;
  config.workload_factory = MicroFactory(micro);
  auto oracle = std::make_shared<testing::LockOracle>();
  config.session_wrapper = [oracle](std::unique_ptr<LockSession> inner) {
    return std::make_unique<testing::OracleSession>(std::move(inner),
                                                    *oracle);
  };
  Testbed testbed(config);
  if (params.system == SystemKind::kNetLock) {
    testbed.netlock().InstallKnapsack(
        UniformMicroDemands(micro, testbed.num_engines()));
    // Fault-free runs also promise per-lock FIFO order of exclusive
    // grants at the switch (Algorithm 2 + overflow, Section 4.3).
    testbed.netlock().lock_switch().set_queue_observer(
        [oracle](LockId lock, TxnId txn, LockMode mode, Priority cls,
                 bool overflowed) {
          oracle->OnSwitchAccept(lock, txn, mode, cls, overflowed);
        });
    testbed.netlock().lock_switch().set_grant_observer(
        [oracle](LockId lock, TxnId txn, LockMode mode, NodeId) {
          oracle->OnSwitchGrant(lock, txn, mode);
        });
  }
  const RunMetrics metrics =
      testbed.Run(/*warmup=*/5 * kMillisecond, /*measure=*/30 * kMillisecond);
  EXPECT_EQ(oracle->violations(), 0u);
  if (params.system == SystemKind::kNetLock) {
    EXPECT_EQ(oracle->fifo_violations(), 0u);
  }
  EXPECT_GT(metrics.txn_commits, 50u);
  testbed.StopEngines(kSecond);
}

std::vector<MatrixParams> MakeMatrix() {
  std::vector<MatrixParams> matrix;
  for (const SystemKind system :
       {SystemKind::kNetLock, SystemKind::kServerOnly, SystemKind::kDslr,
        SystemKind::kDrtm, SystemKind::kNetChain}) {
    for (const LockId locks : {8u, 4096u}) {
      for (const double shared : {0.0, 0.5, 0.9}) {
        // Single-lock txns everywhere; multi-lock only on the contended
        // grid point (the deadlock-prone shape).
        matrix.push_back(MatrixParams{system, locks, shared, 1});
      }
      matrix.push_back(MatrixParams{system, locks, 0.3, 3});
    }
  }
  return matrix;
}

INSTANTIATE_TEST_SUITE_P(Grid, StressMatrixTest,
                         ::testing::ValuesIn(MakeMatrix()), ParamName);

}  // namespace
}  // namespace netlock
