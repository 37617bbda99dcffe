// Simulated RDMA substrate for the decentralized baselines (DSLR, DrTM).
//
// Models the property that makes RDMA lock managers attractive and the one
// that limits them: one-sided verbs (READ / WRITE / CAS / FAA) execute at the
// *target NIC* without involving the server CPU, but the NIC's verb engine
// has finite throughput — on the ConnectX-3 hardware DSLR was evaluated on,
// atomic verbs serialize internally at roughly 2.7 Mops while reads sustain
// roughly 10 Mops. Those two rates, plus the network round trip per verb,
// are what produce DSLR's saturation behaviour in the paper's Figures 10-11.
//
// Verbs ride the same simulated network as lock packets, with a dedicated
// wire header, so loss/latency configuration applies uniformly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/network.h"
#include "sim/service_queue.h"

namespace netlock {

enum class RdmaVerb : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  kCompareAndSwap = 2,
  kFetchAndAdd = 3,
};

/// Wire header for RDMA request/response packets. 32 bytes.
struct RdmaHeader {
  static constexpr std::uint16_t kMagic = 0x5244;  // "RD"
  static constexpr std::size_t kWireSize = 32;

  RdmaVerb verb = RdmaVerb::kRead;
  bool is_response = false;
  std::uint32_t addr = 0;      ///< Word index into the target memory region.
  std::uint64_t value = 0;     ///< Write/swap/add operand; old value in resp.
  std::uint64_t compare = 0;   ///< CAS compare operand.
  std::uint64_t op_id = 0;     ///< Matches responses to pending operations.

  bool SerializeTo(Packet& pkt) const;
  static std::optional<RdmaHeader> Parse(const Packet& pkt);
};

/// The target-side NIC: owns a word-addressed memory region and executes
/// verbs against it in FIFO order at ConnectX-3 rates (see rdma.cc), with
/// no server CPU involvement (the defining property of one-sided RDMA).
class RdmaNic {
 public:
  RdmaNic(Network& net, std::size_t memory_words);

  NodeId node() const { return node_; }

  /// Host-side access (the lock server initializing its lock table).
  std::uint64_t& Memory(std::size_t addr);
  std::size_t memory_words() const { return memory_.size(); }

  std::uint64_t verbs_executed() const { return verbs_executed_; }

 private:
  void OnPacket(const Packet& pkt);
  std::uint64_t ExecuteVerb(const RdmaHeader& hdr);

  Network& net_;
  NodeId node_;
  ServiceQueue engine_;
  std::vector<std::uint64_t> memory_;
  std::uint64_t verbs_executed_ = 0;
};

/// Client-side endpoint: issues verbs to a remote NIC and dispatches
/// completions. One endpoint per client machine.
class RdmaEndpoint {
 public:
  using Completion = std::function<void(std::uint64_t old_or_read_value)>;

  explicit RdmaEndpoint(Network& net);

  NodeId node() const { return node_; }

  void Read(NodeId nic, std::uint32_t addr, Completion cb);
  void Write(NodeId nic, std::uint32_t addr, std::uint64_t value,
             Completion cb);
  /// Returns the pre-swap value to cb; the swap succeeded iff it == compare.
  void CompareAndSwap(NodeId nic, std::uint32_t addr, std::uint64_t compare,
                      std::uint64_t swap, Completion cb);
  /// Returns the pre-add value to cb.
  void FetchAndAdd(NodeId nic, std::uint32_t addr, std::uint64_t delta,
                   Completion cb);

  std::uint64_t ops_issued() const { return next_op_id_; }

 private:
  void Issue(NodeId nic, RdmaHeader hdr, Completion cb);
  void OnPacket(const Packet& pkt);

  Network& net_;
  NodeId node_;
  std::uint64_t next_op_id_ = 0;
  std::unordered_map<std::uint64_t, Completion> pending_;
};

}  // namespace netlock
