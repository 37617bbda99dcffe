#include "rdma/rdma.h"

#include "common/check.h"
#include "net/wire.h"

namespace netlock {

namespace {
// Verb service times, modelled on ConnectX-3 measurements.
constexpr SimTime kAtomicServiceTime = 370;  ///< ~2.7 Mops for CAS/FAA.
constexpr SimTime kReadServiceTime = 100;    ///< ~10 Mops for READ.
constexpr SimTime kWriteServiceTime = 100;   ///< ~10 Mops for WRITE.
}  // namespace

bool RdmaHeader::SerializeTo(Packet& pkt) const {
  BufWriter w(pkt.mutable_payload());
  w.WriteU16(kMagic);
  w.WriteU8(static_cast<std::uint8_t>(verb));
  w.WriteU8(is_response ? 1 : 0);
  w.WriteU32(addr);
  w.WriteU64(value);
  w.WriteU64(compare);
  w.WriteU64(op_id);
  if (!w.ok()) return false;
  NETLOCK_DCHECK(w.written() == kWireSize);
  pkt.set_size(w.written());
  return true;
}

std::optional<RdmaHeader> RdmaHeader::Parse(const Packet& pkt) {
  BufReader r(pkt.payload());
  if (r.ReadU16() != kMagic) return std::nullopt;
  RdmaHeader hdr;
  const std::uint8_t verb = r.ReadU8();
  if (verb > static_cast<std::uint8_t>(RdmaVerb::kFetchAndAdd)) {
    return std::nullopt;
  }
  hdr.verb = static_cast<RdmaVerb>(verb);
  hdr.is_response = r.ReadU8() != 0;
  hdr.addr = r.ReadU32();
  hdr.value = r.ReadU64();
  hdr.compare = r.ReadU64();
  hdr.op_id = r.ReadU64();
  if (!r.ok()) return std::nullopt;
  return hdr;
}

RdmaNic::RdmaNic(Network& net, std::size_t memory_words)
    : net_(net),
      engine_(net.sim(), kReadServiceTime),
      memory_(memory_words, 0) {
  node_ = net_.AddNode([this](const Packet& pkt) { OnPacket(pkt); });
}

std::uint64_t& RdmaNic::Memory(std::size_t addr) {
  NETLOCK_CHECK(addr < memory_.size());
  return memory_[addr];
}

void RdmaNic::OnPacket(const Packet& pkt) {
  const std::optional<RdmaHeader> hdr = RdmaHeader::Parse(pkt);
  if (!hdr || hdr->is_response) return;  // Not ours; drop silently.
  const SimTime service =
      (hdr->verb == RdmaVerb::kCompareAndSwap ||
       hdr->verb == RdmaVerb::kFetchAndAdd)
          ? kAtomicServiceTime
          : (hdr->verb == RdmaVerb::kRead ? kReadServiceTime
                                          : kWriteServiceTime);
  // The verb executes when it reaches the head of the NIC engine queue;
  // execution and response generation happen at completion time so that
  // atomics from different clients serialize in arrival order.
  const RdmaHeader request = *hdr;
  const NodeId reply_to = pkt.src;
  engine_.SubmitWithTime(service, [this, request, reply_to]() {
    RdmaHeader resp = request;
    resp.is_response = true;
    resp.value = ExecuteVerb(request);
    Packet out;
    out.src = node_;
    out.dst = reply_to;
    const bool ok = resp.SerializeTo(out);
    NETLOCK_CHECK(ok);
    net_.Send(out);
  });
}

std::uint64_t RdmaNic::ExecuteVerb(const RdmaHeader& hdr) {
  NETLOCK_CHECK(hdr.addr < memory_.size());
  ++verbs_executed_;
  std::uint64_t& cell = memory_[hdr.addr];
  const std::uint64_t old = cell;
  switch (hdr.verb) {
    case RdmaVerb::kRead:
      break;
    case RdmaVerb::kWrite:
      cell = hdr.value;
      break;
    case RdmaVerb::kCompareAndSwap:
      if (cell == hdr.compare) cell = hdr.value;
      break;
    case RdmaVerb::kFetchAndAdd:
      cell += hdr.value;
      break;
  }
  return old;
}

RdmaEndpoint::RdmaEndpoint(Network& net) : net_(net) {
  node_ = net_.AddNode([this](const Packet& pkt) { OnPacket(pkt); });
}

void RdmaEndpoint::Read(NodeId nic, std::uint32_t addr, Completion cb) {
  RdmaHeader hdr;
  hdr.verb = RdmaVerb::kRead;
  hdr.addr = addr;
  Issue(nic, hdr, std::move(cb));
}

void RdmaEndpoint::Write(NodeId nic, std::uint32_t addr, std::uint64_t value,
                         Completion cb) {
  RdmaHeader hdr;
  hdr.verb = RdmaVerb::kWrite;
  hdr.addr = addr;
  hdr.value = value;
  Issue(nic, hdr, std::move(cb));
}

void RdmaEndpoint::CompareAndSwap(NodeId nic, std::uint32_t addr,
                                  std::uint64_t compare, std::uint64_t swap,
                                  Completion cb) {
  RdmaHeader hdr;
  hdr.verb = RdmaVerb::kCompareAndSwap;
  hdr.addr = addr;
  hdr.compare = compare;
  hdr.value = swap;
  Issue(nic, hdr, std::move(cb));
}

void RdmaEndpoint::FetchAndAdd(NodeId nic, std::uint32_t addr,
                               std::uint64_t delta, Completion cb) {
  RdmaHeader hdr;
  hdr.verb = RdmaVerb::kFetchAndAdd;
  hdr.addr = addr;
  hdr.value = delta;
  Issue(nic, hdr, std::move(cb));
}

void RdmaEndpoint::Issue(NodeId nic, RdmaHeader hdr, Completion cb) {
  hdr.op_id = next_op_id_++;
  pending_.emplace(hdr.op_id, std::move(cb));
  Packet pkt;
  pkt.src = node_;
  pkt.dst = nic;
  const bool ok = hdr.SerializeTo(pkt);
  NETLOCK_CHECK(ok);
  net_.Send(pkt);
}

void RdmaEndpoint::OnPacket(const Packet& pkt) {
  const std::optional<RdmaHeader> hdr = RdmaHeader::Parse(pkt);
  if (!hdr || !hdr->is_response) return;
  const auto it = pending_.find(hdr->op_id);
  if (it == pending_.end()) return;  // Late duplicate; ignore.
  Completion cb = std::move(it->second);
  pending_.erase(it);
  if (cb) cb(hdr->value);
}

}  // namespace netlock
