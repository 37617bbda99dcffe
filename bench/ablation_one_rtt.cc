// Ablation — one-RTT transactions (paper Section 4.1, no dedicated figure).
//
// Compares per-item completion (lock acquisition + data fetch) in the basic
// mode (grant to client, then a separate fetch to the database server)
// against one-RTT mode (the switch forwards the grant to the database
// server, which replies with item + implied grant). The paper's claim:
// one-RTT saves a round trip and, unlike DrTM/FARM/FaSST-style combined
// requests, never fails at the database server because the lock is already
// held.
#include <cstdio>
#include <memory>
#include <vector>

#include "client/client.h"
#include "common/random.h"
#include "common/stats.h"
#include "dataplane/switch_dataplane.h"
#include "harness/report.h"
#include "server/db_server.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace netlock {
namespace {

struct Result {
  double mtps;
  LatencyRecorder latency;
};

Result Run(bool one_rtt, int num_sessions, LockId num_locks,
           SimTime duration, SimContext& context) {
  Simulator sim(&context);
  Network net(sim, /*latency=*/2500);
  LockSwitchConfig sw_config;
  LockSwitch lock_switch(net, sw_config);
  DbServer db(net);
  net.SetLatency(lock_switch.node(), db.node(), 1500);
  const NodeId dummy_lock_server = net.AddNode([](const Packet&) {});
  for (LockId l = 0; l < num_locks; ++l) {
    lock_switch.InstallLock(l, dummy_lock_server, 4);
  }
  if (one_rtt) {
    lock_switch.SetOneRttRoute([&](LockId) { return db.node(); });
  }

  ClientMachine machine(net);
  Result result;
  std::uint64_t completed = 0;
  Rng rng(7);
  std::vector<std::unique_ptr<NetLockSession>> sessions;
  struct Loop {
    NetLockSession* session;
    TxnId next_txn;
    SimTime started = 0;
  };
  std::vector<std::unique_ptr<Loop>> loops;
  // Closed loop per session: acquire (one-RTT: data arrives with grant;
  // basic: fetch separately), then release and start the next item.
  std::function<void(Loop*)> next = [&](Loop* loop) {
    const LockId lock = static_cast<LockId>(rng.NextBounded(num_locks));
    const TxnId txn = loop->next_txn++;
    loop->started = sim.now();
    loop->session->Acquire(
        lock, LockMode::kExclusive, txn, 0, [&, loop, lock, txn](AcquireResult r) {
          if (r != AcquireResult::kGranted) return;
          if (one_rtt) {
            // Grant already includes the item.
            result.latency.Record(sim.now() - loop->started);
            ++completed;
            loop->session->Release(lock, LockMode::kExclusive, txn);
            next(loop);
            return;
          }
          // Basic mode: explicit fetch round trip.
          LockHeader fetch;
          fetch.op = LockOp::kFetch;
          fetch.lock_id = lock;
          fetch.txn_id = txn;
          fetch.client_node = loop->session->node();
          machine.Send(MakeLockPacket(loop->session->node(), db.node(),
                                      fetch));
          // Completion is observed when kData lands; the session ignores
          // kData without pending state, so poll via a timer matched to the
          // fetch RTT (client->db 4000 + service 500 + back 4000).
          sim.Schedule(2 * 4000 + 500 + 55, [&, loop, lock, txn]() {
            result.latency.Record(sim.now() - loop->started);
            ++completed;
            loop->session->Release(lock, LockMode::kExclusive, txn);
            next(loop);
          });
        });
  };
  for (int i = 0; i < num_sessions; ++i) {
    NetLockSession::Config config;
    config.switch_node = lock_switch.node();
    sessions.push_back(std::make_unique<NetLockSession>(machine, config));
    net.SetLatency(sessions.back()->node(), lock_switch.node(), 2500);
    net.SetLatency(sessions.back()->node(), db.node(), 4000);
    auto loop = std::make_unique<Loop>();
    loop->session = sessions.back().get();
    loop->next_txn = static_cast<TxnId>(i) << 32 | 1;
    loops.push_back(std::move(loop));
  }
  for (auto& loop : loops) next(loop.get());
  sim.RunUntil(duration);
  result.mtps = static_cast<double>(completed) /
                (static_cast<double>(duration) / kSecond) / 1e6;
  return result;
}

}  // namespace
}  // namespace netlock

int main(int argc, char** argv) {
  using namespace netlock;
  BenchReport report("ablation_one_rtt", ParseBenchOptions(argc, argv));
  const SimTime duration =
      report.quick() ? 25 * kMillisecond : 100 * kMillisecond;
  std::printf(
      "NetLock reproduction — ablation: one-RTT transactions (Section 4.1)\n"
      "Item completion = lock acquisition + data fetch, 32 sessions.\n");
  Table table({"mode", "items(MTPS)", "avg(us)", "p50(us)", "p99(us)"});
  for (const bool one_rtt : {false, true}) {
    const Result r =
        Run(one_rtt, /*num_sessions=*/32, /*num_locks=*/4096, duration,
            report.context());
    table.AddRow({one_rtt ? "one-RTT" : "basic (grant + fetch)",
                  Fmt(r.mtps, 3),
                  FmtUs(static_cast<SimTime>(r.latency.Mean())),
                  FmtUs(r.latency.Median()), FmtUs(r.latency.P99())});
    BenchRun& run =
        report.AddRun(one_rtt ? "one-rtt" : "basic", /*throughput_mrps=*/0.0,
                      r.latency);
    run.txn_mtps = r.mtps;
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): one-RTT completes items in a single\n"
      "combined trip (~0.6x the basic-mode latency) and therefore higher\n"
      "per-session closed-loop throughput; no fetch ever fails.\n");
  return report.Write() ? 0 : 1;
}
