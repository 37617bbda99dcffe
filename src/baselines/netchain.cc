#include "baselines/netchain.h"

#include <algorithm>

#include "common/check.h"
#include "net/lock_wire.h"

namespace netlock {

namespace {
/// Client retry backoff: full jitter under base << attempt, capped.
constexpr SimTime kBackoffBase = 4 * kMicrosecond;
constexpr SimTime kBackoffCap = 256 * kMicrosecond;
/// Retry budget before reporting failure to the caller. Blind retry
/// cannot detect deadlock (two transactions each holding a cell the
/// other wants retry forever), so clients must abort: the transaction
/// layer then releases its cells and restarts.
constexpr std::uint32_t kMaxAttempts = 512;
}  // namespace

NetChainSwitch::NetChainSwitch(Network& net, NetChainConfig config)
    : net_(net),
      config_(config),
      pipeline_(net.sim().context().metrics(), config.num_stages) {
  node_ = net_.AddNode([this](const Packet& pkt) { OnPacket(pkt); });
  cells_ = std::make_unique<RegisterArray<std::uint64_t>>(
      pipeline_, /*stage=*/1, config_.num_cells, 0);
}

std::uint32_t NetChainSwitch::CellFor(LockId lock) const {
  std::uint64_t h = lock;
  h ^= h >> 17;
  h *= 0xed5ad4bbull;
  h ^= h >> 11;
  return static_cast<std::uint32_t>(h % config_.num_cells);
}

void NetChainSwitch::OnPacket(const Packet& pkt) {
  const std::optional<LockHeader> hdr = LockHeader::Parse(pkt);
  if (!hdr) return;
  PacketPass pass = pipeline_.BeginPass();
  const std::uint32_t cell = CellFor(hdr->lock_id);
  if (hdr->op == LockOp::kAcquire) {
    // Write-if-empty: one register RMW, as in NetChain's insert path.
    const bool acquired = cells_->ReadModifyWrite(
        pass, cell, [&](std::uint64_t& owner) {
          if (owner == hdr->txn_id) return true;  // Re-entrant: two lock ids
                                                  // coarsened onto one cell.
          if (owner != 0) return false;
          owner = hdr->txn_id;
          return true;
        });
    LockHeader reply = *hdr;
    reply.op = acquired ? LockOp::kGrant : LockOp::kReject;
    reply.aux = static_cast<std::uint32_t>(
        acquired ? AcquireResult::kGranted : AcquireResult::kRejected);
    if (acquired) {
      ++stats_.grants;
    } else {
      ++stats_.busy_replies;
    }
    net_.Send(MakeLockPacket(node_, hdr->client_node, reply));
    return;
  }
  if (hdr->op == LockOp::kRelease) {
    cells_->ReadModifyWrite(pass, cell, [&](std::uint64_t& owner) {
      if (owner == hdr->txn_id) owner = 0;  // Guarded delete.
      return 0;
    });
    ++stats_.releases;
  }
}

NetChainSession::NetChainSession(ClientMachine& machine, NetChainSwitch& kv,
                                 std::uint64_t seed)
    : machine_(machine), kv_(kv), rng_(seed) {
  node_ = machine_.net().AddNode(
      [this](const Packet& pkt) { OnPacket(pkt); });
}

SimTime NetChainSession::Backoff(std::uint32_t attempt) {
  const SimTime ceiling = std::min<SimTime>(
      kBackoffCap, kBackoffBase << std::min<std::uint32_t>(attempt, 8));
  return 1 + rng_.NextBounded(ceiling);
}

void NetChainSession::Acquire(LockId lock, LockMode /*mode*/, TxnId txn,
                              Priority /*priority*/, AcquireCallback cb) {
  // Shared locks are degraded to exclusive (paper Section 6.1): NetChain's
  // KV cells cannot represent multiple holders.
  const auto key = std::make_pair(lock, txn);
  NETLOCK_CHECK(pending_.find(key) == pending_.end());
  Pending pending;
  pending.cb = std::move(cb);
  pending_.emplace(key, std::move(pending));
  SendAcquire(lock, txn);
}

void NetChainSession::SendAcquire(LockId lock, TxnId txn) {
  LockHeader hdr;
  hdr.op = LockOp::kAcquire;
  hdr.mode = LockMode::kExclusive;
  hdr.lock_id = lock;
  hdr.txn_id = txn;
  hdr.client_node = node_;
  hdr.timestamp = machine_.net().sim().now();
  machine_.Send(MakeLockPacket(node_, kv_.node(), hdr));
}

void NetChainSession::Release(LockId lock, LockMode /*mode*/, TxnId txn) {
  LockHeader hdr;
  hdr.op = LockOp::kRelease;
  hdr.mode = LockMode::kExclusive;
  hdr.lock_id = lock;
  hdr.txn_id = txn;
  hdr.client_node = node_;
  machine_.Send(MakeLockPacket(node_, kv_.node(), hdr));
}

void NetChainSession::OnPacket(const Packet& pkt) {
  const std::optional<LockHeader> hdr = LockHeader::Parse(pkt);
  if (!hdr) return;
  const auto it = pending_.find(std::make_pair(hdr->lock_id, hdr->txn_id));
  if (it == pending_.end()) {
    if (hdr->op == LockOp::kGrant) {
      // Late grant after we gave up: free the cell immediately.
      Release(hdr->lock_id, LockMode::kExclusive, hdr->txn_id);
    }
    return;
  }
  if (hdr->op == LockOp::kGrant) {
    AcquireCallback cb = std::move(it->second.cb);
    pending_.erase(it);
    cb(AcquireResult::kGranted);
    return;
  }
  if (hdr->op != LockOp::kReject) return;
  // Busy: blind client-side retry with backoff.
  Pending& pending = it->second;
  if (++pending.attempts > kMaxAttempts) {
    AcquireCallback cb = std::move(pending.cb);
    pending_.erase(it);
    cb(AcquireResult::kTimeout);
    return;
  }
  ++retries_;
  const LockId lock = hdr->lock_id;
  const TxnId txn = hdr->txn_id;
  machine_.net().sim().Schedule(Backoff(pending.attempts),
                                [this, lock, txn]() {
                                  if (pending_.count({lock, txn}) == 0) {
                                    return;
                                  }
                                  SendAcquire(lock, txn);
                                });
}

}  // namespace netlock
