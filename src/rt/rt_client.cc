#include "rt/rt_client.h"

#include "common/check.h"

namespace netlock::rt {

namespace {
constexpr std::size_t kPollBatch = 64;  ///< Completions popped per poll.
}  // namespace

RtClientPool::RtClientPool(RtLockService& service, RtSubstrate& substrate,
                           RtClientConfig config, WorkloadFactory factory)
    : service_(service),
      substrate_(substrate),
      config_(config),
      factory_(std::move(factory)),
      metrics_(service.num_clients()) {
  NETLOCK_CHECK(config_.sessions_per_client >= 1);
  NETLOCK_CHECK(factory_ != nullptr);
  if (config_.telemetry) {
    c_commits_ = &metrics_.Counter("rt.commits");
    h_lock_latency_ = &metrics_.Histogram("rt.lock_latency");
    h_txn_latency_ = &metrics_.Histogram("rt.txn_latency");
  }
  const int num_clients = service_.num_clients();
  threads_.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    auto ct = std::make_unique<ClientThread>(this);
    ct->index = c;
    ct->first_session = c * config_.sessions_per_client;
    ct->sessions.resize(
        static_cast<std::size_t>(config_.sessions_per_client));
    for (int s = 0; s < config_.sessions_per_client; ++s) {
      Session& sess = ct->sessions[static_cast<std::size_t>(s)];
      const int global = ct->first_session + s;
      sess.rng = Rng(config_.seed * 1000003ull +
                     static_cast<std::uint64_t>(global));
      sess.workload = factory_(global);
      NETLOCK_CHECK(sess.workload != nullptr);
      sess.ids.engine_id = static_cast<std::uint32_t>(global + 1);
    }
    ct->staged.resize(static_cast<std::size_t>(service_.cores()));
    for (auto& buf : ct->staged) buf.reserve(kPollBatch);
    threads_.push_back(std::move(ct));
  }
}

RtClientPool::~RtClientPool() { Join(); }

void RtClientPool::Start() {
  NETLOCK_CHECK(!started_);
  started_ = true;
  for (auto& ct : threads_) {
    ct->thread = std::thread([this, t = ct.get()]() { RunClient(*t); });
  }
}

void RtClientPool::Join() {
  if (!started_ || joined_) return;
  joined_ = true;
  for (auto& ct : threads_) {
    if (ct->thread.joinable()) ct->thread.join();
  }
}

void RtClientPool::RunClient(ClientThread& ct) {
  std::size_t live = ct.sessions.size();
  const SimTime start = substrate_.Now();
  for (Session& s : ct.sessions) BeginTxn(ct, s, start);
  FlushStaged(ct);  // Every session's first acquire, one flush per core.
  std::vector<RtCompletion> buf(kPollBatch);
  int idle = 0;
  while (live > 0) {
    const std::size_t n =
        service_.PollCompletions(ct.index, buf.data(), buf.size());
    std::size_t idled = 0;
    const std::size_t resumed = ResumeBackoffs(ct, idled);
    live -= idled;
    if (n == 0 && resumed == 0) {
      if (++idle > 64) std::this_thread::yield();
      continue;
    }
    idle = 0;
    if (n != 0) {
      // One clock read per nonempty poll serves every completion it
      // popped: latency samples, backoff deadlines and next issues.
      const SimTime now = substrate_.Now();
      for (std::size_t i = 0; i < n; ++i) {
        if (OnCompletion(ct, buf[i], now)) --live;
      }
    }
    // One flush per poll iteration: everything OnCompletion staged (next
    // acquires, commit releases, cancels) and every resumed session's
    // first acquire goes out in per-core batches.
    FlushStaged(ct);
  }
  // The OnCompletion that idled the last session staged its final releases
  // after the flush above — push them before the thread exits, or the
  // engine would leak held locks.
  FlushStaged(ct);
}

void RtClientPool::StageSink::operator()(TxnOp op, const LockRequest& req,
                                         TxnId txn) const {
  pool->Stage(*ct,
              op == TxnOp::kRelease ? RtRequest::Op::kRelease
                                    : RtRequest::Op::kCancel,
              req, txn);
}

void RtClientPool::Stage(ClientThread& ct, RtRequest::Op op,
                         const LockRequest& req, TxnId txn) {
  const RtRequest rt{op, req.mode, req.lock, txn,
                     static_cast<std::uint32_t>(ct.index)};
  ct.staged[static_cast<std::size_t>(service_.CoreFor(rt.lock))].push_back(rt);
}

void RtClientPool::FlushStaged(ClientThread& ct) {
  for (std::size_t core = 0; core < ct.staged.size(); ++core) {
    std::vector<RtRequest>& buf = ct.staged[core];
    if (buf.empty()) continue;
    service_.SubmitBatch(ct.index, static_cast<int>(core), buf.data(),
                         buf.size());
    buf.clear();
  }
}

void RtClientPool::BeginTxn(ClientThread& ct, Session& s, SimTime now) {
  // Drawn into the session's spec, so a steady-state transaction reuses
  // its storage.
  s.workload->NextInto(s.rng, s.txn.spec);
  // No OrderLockSet: rt conflict units are the lock ids, ordered workloads
  // already emit sorted, deduplicated sets, and unordered ones are
  // deadlock-prone on purpose (the sim runs them with
  // preserve_workload_order).
  ct.driver.Begin(s.txn, s.ids.Next(), now);
  SubmitAcquire(ct, s, now);
}

void RtClientPool::SubmitAcquire(ClientThread& ct, Session& s, SimTime now) {
  const LockRequest& req = ct.driver.Issue(
      s.txn, now, recording_.load(std::memory_order_acquire));
  Stage(ct, RtRequest::Op::kAcquire, req, s.txn.id);
}

bool RtClientPool::OnCompletion(ClientThread& ct, const RtCompletion& comp,
                                SimTime now) {
  const int global = static_cast<int>(EngineOfTxn(comp.txn)) - 1;
  const int local = global - ct.first_session;
  NETLOCK_CHECK(local >= 0 &&
                local < static_cast<int>(ct.sessions.size()));
  Session& s = ct.sessions[static_cast<std::size_t>(local)];
  TxnState& t = s.txn;
  // Stale: a completion for an attempt the session already ended. Any
  // stale *grant*'s queue entry was covered by the abort's kCancel (or
  // removed by the wound itself), so dropping it leaks nothing.
  if (!t.Is(comp.txn)) return false;
  const bool rec = recording_.load(std::memory_order_acquire);
  if (comp.status == RtCompletion::Status::kAborted) {
    // Per-core FIFO completion order puts a grant before any wound of the
    // same entry, so an abort naming the pending lock refused the acquire
    // (die, or a wound of the still-queued entry) and an abort naming any
    // other lock wounded a held one.
    if (comp.lock == t.pending_lock()) {
      ct.driver.Abort(t, comp.txn, rec);
    } else {
      ct.driver.Wound(t, comp.txn, comp.lock, rec);
    }
    NETLOCK_DCHECK(!s.backoff);
    s.backoff = true;
    ++ct.backoffs;
    s.retry_at = now + config_.abort_backoff;
    return false;
  }
  NETLOCK_CHECK(comp.lock == t.pending_lock());
  if (config_.telemetry) {
    h_lock_latency_->Record(ct.index, now - t.lock_issued);
  }
  if (ct.driver.Grant(t, comp.txn, now, rec) == GrantStep::kAcquireNext) {
    SubmitAcquire(ct, s, now);
    return false;
  }
  // All locks held: commit and release (no think time — the rt backend
  // measures the lock service, not a database).
  ct.driver.Commit(t, comp.txn, now, rec);
  ++s.committed;
  if (config_.telemetry) {
    c_commits_->Inc(ct.index, 1);
    h_txn_latency_->Record(ct.index, now - t.started);
  }
  const bool budget_done = config_.txns_per_session != 0 &&
                           s.committed >= config_.txns_per_session;
  if (budget_done || stop_.load(std::memory_order_acquire)) return true;
  BeginTxn(ct, s, now);
  return false;
}

std::size_t RtClientPool::ResumeBackoffs(ClientThread& ct,
                                         std::size_t& idled) {
  if (ct.backoffs == 0) return 0;
  std::size_t resumed = 0;
  const SimTime now = substrate_.Now();
  for (Session& s : ct.sessions) {
    if (!s.backoff || now < s.retry_at) continue;
    s.backoff = false;
    --ct.backoffs;
    if (stop_.load(std::memory_order_acquire)) {
      ++idled;
      continue;
    }
    // Fresh (younger) txn id, same spec — mirrors the simulated TxnEngine,
    // which is what keeps fixed-count commit totals backend-identical.
    ct.driver.Begin(s.txn, s.ids.Next(), now);
    SubmitAcquire(ct, s, now);
    ++resumed;
  }
  return resumed;
}

RunMetrics RtClientPool::Collect() const {
  RunMetrics total;
  for (const auto& ct : threads_) {
    const RunMetrics& m = ct->driver.metrics();
    total.lock_grants += m.lock_grants;
    total.lock_requests += m.lock_requests;
    total.txn_commits += m.txn_commits;
    total.lock_latency.Merge(m.lock_latency);
    total.txn_latency.Merge(m.txn_latency);
  }
  return total;
}

std::uint64_t RtClientPool::Sum(std::uint64_t TxnCounters::*counter) const {
  std::uint64_t total = 0;
  for (const auto& ct : threads_) total += ct->driver.counters().*counter;
  return total;
}

}  // namespace netlock::rt
