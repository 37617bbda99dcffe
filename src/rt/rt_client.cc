#include "rt/rt_client.h"

#include "common/check.h"

namespace netlock::rt {

RtClientPool::RtClientPool(RtLockService& service,
                           ExecutionSubstrate& substrate,
                           RtClientConfig config, WorkloadFactory factory)
    : service_(service),
      substrate_(substrate),
      config_(config),
      factory_(std::move(factory)),
      domain_(service.num_clients()) {
  NETLOCK_CHECK(config_.sessions_per_client >= 1);
  NETLOCK_CHECK(factory_ != nullptr);
  if (config_.telemetry) {
    c_commits_ = domain_.RegisterCounter("rt.commits");
    h_lock_latency_ = domain_.RegisterHistogram("rt.lock_latency");
    h_txn_latency_ = domain_.RegisterHistogram("rt.txn_latency");
  }
  const int num_clients = service_.num_clients();
  threads_.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    auto ct = std::make_unique<ClientThread>();
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
      sess.engine_id = static_cast<std::uint32_t>(global + 1);
    }
    ct->staged.resize(static_cast<std::size_t>(service_.cores()));
    for (auto& buf : ct->staged) buf.reserve(config_.poll_batch);
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
  std::size_t live = 0;
  for (Session& s : ct.sessions) {
    s.active = true;
    ++live;
    BeginTxn(ct, s);
  }
  FlushStaged(ct);  // Every session's first acquire, one flush per core.
  std::vector<RtCompletion> buf(config_.poll_batch);
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
    for (std::size_t i = 0; i < n; ++i) {
      if (OnGrant(ct, buf[i])) --live;
    }
    // One flush per poll iteration: everything OnGrant staged (next
    // acquires, commit releases, cancels) and every resumed session's
    // first acquire goes out in per-core batches.
    FlushStaged(ct);
  }
  // The OnGrant that idled the last session staged its final releases
  // after the flush above — push them before the thread exits, or the
  // engine would leak held locks.
  FlushStaged(ct);
}

void RtClientPool::EnqueueRequest(ClientThread& ct, const RtRequest& rt) {
  ct.staged[static_cast<std::size_t>(service_.CoreFor(rt.lock))]
      .push_back(rt);
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

void RtClientPool::BeginTxn(ClientThread& ct, Session& s) {
  s.current = s.workload->Next(s.rng);
  NETLOCK_CHECK(!s.current.locks.empty());
  // Workloads emit sorted, deduplicated lock sets (deadlock avoidance by
  // global order) and rt conflict units are the lock ids themselves, so no
  // re-normalization is needed here.
  s.txn = (static_cast<TxnId>(s.engine_id) << 40) | ++s.counter;
  s.next_lock = 0;
  s.txn_start = substrate_.Now();
  SubmitAcquire(ct, s);
}

void RtClientPool::SubmitAcquire(ClientThread& ct, Session& s) {
  const LockRequest& req = s.current.locks[s.next_lock];
  s.lock_issue = substrate_.Now();
  if (recording_.load(std::memory_order_acquire)) {
    ++ct.metrics.lock_requests;
  }
  RtRequest rt;
  rt.op = RtRequest::Op::kAcquire;
  rt.mode = req.mode;
  rt.lock = req.lock;
  rt.txn = s.txn;
  rt.client = static_cast<std::uint32_t>(ct.index);
  EnqueueRequest(ct, rt);
}

bool RtClientPool::OnGrant(ClientThread& ct, const RtCompletion& comp) {
  const int global = static_cast<int>(comp.txn >> 40) - 1;
  const int local = global - ct.first_session;
  NETLOCK_CHECK(local >= 0 &&
                local < static_cast<int>(ct.sessions.size()));
  Session& s = ct.sessions[static_cast<std::size_t>(local)];
  if (comp.txn != s.txn || !s.active || s.backoff) {
    // Stale: a completion for a transaction the session already aborted.
    // Any stale *grant*'s queue entry was covered by the abort's kCancel
    // (or removed by the wound itself), so dropping it leaks nothing.
    return false;
  }
  if (comp.status == RtCompletion::Status::kAborted) {
    OnAbort(ct, s, comp);
    return false;
  }
  NETLOCK_CHECK(s.next_lock < s.current.locks.size());
  NETLOCK_CHECK(comp.lock == s.current.locks[s.next_lock].lock);
  const bool rec = recording_.load(std::memory_order_acquire);
  if (rec || config_.telemetry) {
    // One clock read feeds both the windowed RunMetrics recorder and the
    // always-on sharded histogram.
    const SimTime now = substrate_.Now();
    if (config_.telemetry) {
      domain_.Record(ct.index, h_lock_latency_, now - s.lock_issue);
    }
    if (rec) {
      ++ct.metrics.lock_grants;
      ct.metrics.lock_latency.Record(now - s.lock_issue);
    }
  }
  ++s.next_lock;
  if (s.next_lock < s.current.locks.size()) {
    SubmitAcquire(ct, s);
    return false;
  }
  // All locks held: commit and release (no think time — the rt backend
  // measures the lock service, not a database).
  for (const LockRequest& req : s.current.locks) {
    RtRequest rt;
    rt.op = RtRequest::Op::kRelease;
    rt.mode = req.mode;
    rt.lock = req.lock;
    rt.txn = s.txn;
    rt.client = static_cast<std::uint32_t>(ct.index);
    EnqueueRequest(ct, rt);
  }
  ++ct.commits;
  ++s.committed;
  ct.committed_lock_grants += s.current.locks.size();
  if (rec || config_.telemetry) {
    const SimTime now = substrate_.Now();
    if (config_.telemetry) {
      domain_.Inc(ct.index, c_commits_);
      domain_.Record(ct.index, h_txn_latency_, now - s.txn_start);
    }
    if (rec) {
      ++ct.metrics.txn_commits;
      ct.metrics.txn_latency.Record(now - s.txn_start);
    }
  }
  const bool budget_done = config_.txns_per_session != 0 &&
                           s.committed >= config_.txns_per_session;
  if (budget_done || stop_.load(std::memory_order_acquire)) {
    s.active = false;
    return true;
  }
  BeginTxn(ct, s);
  return false;
}

void RtClientPool::OnAbort(ClientThread& ct, Session& s,
                           const RtCompletion& comp) {
  ++ct.aborts;
  if (recording_.load(std::memory_order_acquire)) ++ct.metrics.retries;
  // Was the aborted entry our still-pending acquire (die / wound of a
  // not-yet-granted entry) or an already-held lock (wound)? Per-core FIFO
  // completion order guarantees a grant always precedes a wound of the
  // same entry, so this test is unambiguous.
  const bool pending = s.next_lock < s.current.locks.size() &&
                       comp.lock == s.current.locks[s.next_lock].lock;
  if (!pending) ++ct.wounds;
  // Two-phase-locking abort: release the held prefix. A wounded held lock
  // is skipped — its queue entry is already gone, and releasing it would
  // pop some other waiter's entry.
  for (std::size_t i = 0; i < s.next_lock; ++i) {
    const LockRequest& req = s.current.locks[i];
    if (!pending && req.lock == comp.lock) continue;
    RtRequest rt;
    rt.op = RtRequest::Op::kRelease;
    rt.mode = req.mode;
    rt.lock = req.lock;
    rt.txn = s.txn;
    rt.client = static_cast<std::uint32_t>(ct.index);
    EnqueueRequest(ct, rt);
  }
  // A wound with an acquire still in flight: that acquire can no longer be
  // answered usefully — tell the manager to drop whatever entry it creates
  // (idempotent if it never queued), so a doomed entry never stalls the
  // queue. Submitted through the same mailbox as the acquire, so it is
  // processed after it.
  if (!pending && s.next_lock < s.current.locks.size()) {
    const LockRequest& req = s.current.locks[s.next_lock];
    RtRequest rt;
    rt.op = RtRequest::Op::kCancel;
    rt.mode = req.mode;
    rt.lock = req.lock;
    rt.txn = s.txn;
    rt.client = static_cast<std::uint32_t>(ct.index);
    EnqueueRequest(ct, rt);
  }
  s.backoff = true;
  s.retry_at = substrate_.Now() + config_.abort_backoff;
}

std::size_t RtClientPool::ResumeBackoffs(ClientThread& ct,
                                         std::size_t& idled) {
  bool any = false;
  for (const Session& s : ct.sessions) {
    if (s.backoff) {
      any = true;
      break;
    }
  }
  if (!any) return 0;
  std::size_t resumed = 0;
  const SimTime now = substrate_.Now();
  for (Session& s : ct.sessions) {
    if (!s.backoff || now < s.retry_at) continue;
    s.backoff = false;
    if (stop_.load(std::memory_order_acquire)) {
      s.active = false;
      ++idled;
      continue;
    }
    // Fresh (younger) txn id, same spec — mirrors the simulated TxnEngine,
    // which is what keeps fixed-count commit totals backend-identical.
    s.txn = (static_cast<TxnId>(s.engine_id) << 40) | ++s.counter;
    s.next_lock = 0;
    s.txn_start = now;
    SubmitAcquire(ct, s);
    ++resumed;
  }
  return resumed;
}

RunMetrics RtClientPool::Collect() const {
  RunMetrics total;
  for (const auto& ct : threads_) {
    total.lock_grants += ct->metrics.lock_grants;
    total.lock_requests += ct->metrics.lock_requests;
    total.txn_commits += ct->metrics.txn_commits;
    total.lock_latency.Merge(ct->metrics.lock_latency);
    total.txn_latency.Merge(ct->metrics.txn_latency);
  }
  return total;
}

std::uint64_t RtClientPool::TotalCommits() const {
  std::uint64_t total = 0;
  for (const auto& ct : threads_) total += ct->commits;
  return total;
}

std::uint64_t RtClientPool::TotalAborts() const {
  std::uint64_t total = 0;
  for (const auto& ct : threads_) total += ct->aborts;
  return total;
}

std::uint64_t RtClientPool::TotalWounds() const {
  std::uint64_t total = 0;
  for (const auto& ct : threads_) total += ct->wounds;
  return total;
}

std::uint64_t RtClientPool::TotalCommittedLockGrants() const {
  std::uint64_t total = 0;
  for (const auto& ct : threads_) total += ct->committed_lock_grants;
  return total;
}

}  // namespace netlock::rt
