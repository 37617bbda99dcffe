#include "sim/network.h"

#include "common/random.h"
// A .cc-only dependency on the lock wire format: wire spans carry the
// request id (lock, txn) that correlates them with the other stages'
// events. Non-lock packets simply get no span.
#include "net/lock_wire.h"

namespace netlock {

namespace {

const char* WireSpanName(LockOp op) {
  switch (op) {
    case LockOp::kAcquire: return "wire.acquire";
    case LockOp::kRelease: return "wire.release";
    case LockOp::kGrant: return "wire.grant";
    case LockOp::kReject: return "wire.reject";
    case LockOp::kQueueEmpty: return "wire.queue_empty";
    case LockOp::kPush: return "wire.push";
    case LockOp::kSyncState: return "wire.sync_state";
    case LockOp::kFetch: return "wire.fetch";
    case LockOp::kData: return "wire.data";
    case LockOp::kCancel: return "wire.cancel";
    case LockOp::kAbort: return "wire.abort";
  }
  return "wire.unknown";
}

}  // namespace

void Network::TracePacket(const Packet& pkt, SimTime start, SimTime latency,
                          bool dropped) const {
  const std::optional<LockHeader> hdr = LockHeader::Parse(pkt);
  if (!hdr || !trace_->Sampled(hdr->lock_id, hdr->txn_id)) return;
  const std::uint64_t id = TraceLog::RequestId(hdr->lock_id, hdr->txn_id);
  if (dropped) {
    trace_->Instant(TraceTrack::kNetwork, "wire.drop", start, id,
                    {"dst", pkt.dst});
    return;
  }
  trace_->Complete(TraceTrack::kNetwork, WireSpanName(hdr->op), start,
                   start + latency, id, {"src", pkt.src}, {"dst", pkt.dst});
}

NodeId Network::AddNode(PacketHandler handler) {
  handlers_.push_back(std::move(handler));
  return static_cast<NodeId>(handlers_.size() - 1);
}

void Network::SetHandler(NodeId node, PacketHandler handler) {
  NETLOCK_CHECK(node < handlers_.size());
  handlers_[node] = std::move(handler);
}

void Network::SetLatency(NodeId a, NodeId b, SimTime one_way) {
  link_latency_[PairKey(a, b)] = one_way;
}

SimTime Network::LatencyLookup(NodeId a, NodeId b) const {
  const auto it = link_latency_.find(PairKey(a, b));
  return it == link_latency_.end() ? default_latency_ : it->second;
}

void Network::Deliver(const Packet& pkt) {
  auto& handler = handlers_[pkt.dst];
  NETLOCK_CHECK(handler != nullptr);
  handler(pkt);
}

namespace {

/// Uniform double in [0, 1) from a SplitMix64 stream.
double NextUnit(std::uint64_t& state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

/// Uniform integer in [0, n) from a SplitMix64 stream. The modulo bias is
/// irrelevant for fault timing.
std::uint64_t NextBounded(std::uint64_t& state, std::uint64_t n) {
  return SplitMix64(state) % n;
}

}  // namespace

std::uint64_t Network::StreamState(std::uint64_t tag) const {
  // Independent stream per fault type: mix the master seed with a per-type
  // tag through one SplitMix64 round. `| 1` keeps the stream state nonzero.
  std::uint64_t s = fault_seed_ ^ (tag * 0x9e3779b97f4a7c15ull);
  return SplitMix64(s) | 1;
}

void Network::SetFaultSeed(std::uint64_t seed) {
  fault_seed_ = seed;
  loss_state_ = StreamState(1);
  dup_state_ = StreamState(2);
  reorder_state_ = StreamState(3);
  jitter_state_ = StreamState(4);
}

void Network::SetLossProbability(double p) {
  NETLOCK_CHECK(p >= 0.0 && p <= 1.0);
  default_faults_.loss = p;
  // Derived from the fault seed (itself the run seed under the testbed), so
  // seeded sweeps see different drop patterns instead of silently repeating
  // the seed=1 stream.
  loss_state_ = StreamState(1);
  RecomputeFaultsActive();
}

void Network::SetLossProbability(double p, std::uint64_t seed) {
  NETLOCK_CHECK(p >= 0.0 && p <= 1.0);
  default_faults_.loss = p;
  loss_state_ = seed | 1;
  RecomputeFaultsActive();
}

void Network::SetDefaultFaults(const LinkFaults& faults) {
  default_faults_ = faults;
  RecomputeFaultsActive();
}

void Network::SetLinkFaults(NodeId a, NodeId b, const LinkFaults& faults) {
  link_faults_[PairKey(a, b)] = faults;
  RecomputeFaultsActive();
}

void Network::ClearFaults() {
  default_faults_ = LinkFaults{};
  link_faults_.clear();
  blocked_pairs_.clear();
  blocked_nodes_.assign(blocked_nodes_.size(), 0);
  num_blocked_nodes_ = 0;
  RecomputeFaultsActive();
}

void Network::BlockPair(NodeId a, NodeId b) {
  blocked_pairs_.insert(PairKey(a, b));
  RecomputeFaultsActive();
}

void Network::UnblockPair(NodeId a, NodeId b) {
  blocked_pairs_.erase(PairKey(a, b));
  RecomputeFaultsActive();
}

void Network::BlockNode(NodeId node) {
  if (node >= blocked_nodes_.size()) blocked_nodes_.resize(node + 1, 0);
  if (!blocked_nodes_[node]) {
    blocked_nodes_[node] = 1;
    ++num_blocked_nodes_;
  }
  RecomputeFaultsActive();
}

void Network::UnblockNode(NodeId node) {
  if (node < blocked_nodes_.size() && blocked_nodes_[node]) {
    blocked_nodes_[node] = 0;
    --num_blocked_nodes_;
  }
  RecomputeFaultsActive();
}

void Network::RecomputeFaultsActive() {
  faults_active_ = default_faults_.any() || !link_faults_.empty() ||
                   !blocked_pairs_.empty() || num_blocked_nodes_ > 0;
}

const LinkFaults& Network::FaultsFor(NodeId a, NodeId b) const {
  if (!link_faults_.empty()) {
    const auto it = link_faults_.find(PairKey(a, b));
    if (it != link_faults_.end()) return it->second;
  }
  return default_faults_;
}

bool Network::Blocked(NodeId a, NodeId b) const {
  if (num_blocked_nodes_ > 0) {
    if (a < blocked_nodes_.size() && blocked_nodes_[a]) return true;
    if (b < blocked_nodes_.size() && blocked_nodes_[b]) return true;
  }
  return !blocked_pairs_.empty() &&
         blocked_pairs_.count(PairKey(a, b)) != 0;
}

void Network::DropPacket(const Packet& pkt) {
  ++packets_dropped_;
  dropped_metric_->Inc();
  if (trace_->enabled()) TracePacket(pkt, sim_.now(), 0, /*dropped=*/true);
}

void Network::SendThroughFaults(const Packet& pkt) {
  if (Blocked(pkt.src, pkt.dst)) {
    DropPacket(pkt);
    return;
  }
  const LinkFaults& f = FaultsFor(pkt.src, pkt.dst);
  // Draw order is fixed (loss, jitter, reorder, duplicate) and each stream
  // advances only while its knob is set, so a given fault configuration +
  // seed replays the exact same fault sequence.
  if (f.loss > 0.0 && NextUnit(loss_state_) < f.loss) {
    DropPacket(pkt);
    return;
  }
  SimTime latency = LatencyBetween(pkt.src, pkt.dst);
  if (f.jitter > 0) {
    latency += static_cast<SimTime>(
        NextBounded(jitter_state_, static_cast<std::uint64_t>(f.jitter) + 1));
  }
  if (f.reorder > 0.0 && f.reorder_window > 0 &&
      NextUnit(reorder_state_) < f.reorder) {
    latency += 1 + static_cast<SimTime>(NextBounded(
                       reorder_state_,
                       static_cast<std::uint64_t>(f.reorder_window)));
    ++packets_reordered_;
  }
  if (trace_->enabled()) {
    TracePacket(pkt, sim_.now(), latency, /*dropped=*/false);
  }
  sim_.Schedule(latency, PacketDelivery{this, pkt});
  if (f.duplicate > 0.0 && NextUnit(dup_state_) < f.duplicate) {
    // The copy trails the original by a bounded extra delay, landing among
    // whatever traffic is in flight by then.
    const std::uint64_t window =
        f.reorder_window > 0 ? static_cast<std::uint64_t>(f.reorder_window)
                             : 1000;
    const SimTime extra = 1 + static_cast<SimTime>(
                                  NextBounded(dup_state_, window));
    ++packets_duplicated_;
    sim_.Schedule(latency + extra, PacketDelivery{this, pkt});
  }
}

void Network::Send(const Packet& pkt, SimTime depart) {
  NETLOCK_CHECK(pkt.dst < handlers_.size());
  if (faults_active_ && depart > 0) {
    // The one place a NIC hop still costs an event. Fault streams must draw
    // in departure order and partitions must be judged at departure time,
    // so while faults are active a queued packet re-enters Send when it
    // leaves the NIC, exactly as if its sender had sent it then.
    sim_.Schedule(depart, PacketDeparture{this, pkt});
    return;
  }
  ++packets_sent_;
  packets_metric_->Inc();
  bytes_metric_->Inc(pkt.size());
  if (faults_active_) {
    SendThroughFaults(pkt);
    return;
  }
  const SimTime latency = LatencyBetween(pkt.src, pkt.dst);
  if (trace_->enabled()) {
    TracePacket(pkt, sim_.now() + depart, latency, /*dropped=*/false);
  }
  // Typed fast path: the packet goes straight into the event slot's inline
  // buffer — no closure on the heap, zero allocations per hop once the
  // queue's slot arena has warmed up.
  sim_.Schedule(depart + latency, PacketDelivery{this, pkt});
}

}  // namespace netlock
