// Simulated rack network: nodes connected through configurable-latency links.
//
// This substitutes for the paper's testbed fabric (clients and servers under
// one ToR). Latency is per node pair with a configurable default; bandwidth
// serialization is folded into per-component service models (ServiceQueue,
// or a sender NIC's departure delay passed to Send), matching how the paper
// reasons about performance: propagation RTT plus endpoint processing
// capacity.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/tracelog.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace netlock {

/// A network packet. Payload is an inline byte buffer: lock messages are
/// small (tens of bytes) and experiments move tens of millions of packets,
/// so avoiding per-packet heap allocation matters.
class Packet {
 public:
  static constexpr std::size_t kMaxPayload = 64;

  Packet() = default;

  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;

  std::span<const std::uint8_t> payload() const {
    return {payload_.data(), size_};
  }

  /// Writable buffer for serialization; call set_size() afterwards.
  std::span<std::uint8_t> mutable_payload() {
    return {payload_.data(), payload_.size()};
  }

  void set_size(std::size_t n) {
    NETLOCK_CHECK(n <= kMaxPayload);
    size_ = n;
  }
  std::size_t size() const { return size_; }

 private:
  std::array<std::uint8_t, kMaxPayload> payload_{};
  std::size_t size_ = 0;
};

/// Receives packets addressed to a node.
using PacketHandler = std::function<void(const Packet&)>;

/// The fault model of one link (or of the whole fabric, as the default):
/// independent per-packet loss and duplication, uniform latency jitter, and
/// probabilistic reordering (an extra delay in [1, reorder_window] lets a
/// later packet overtake). All draws come from seed-derived SplitMix64
/// streams (see Network::SetFaultSeed), so runs replay byte-identically.
struct LinkFaults {
  /// P(packet silently dropped).
  double loss = 0.0;
  /// P(a second copy of the packet is delivered a little later).
  double duplicate = 0.0;
  /// P(the packet is held back by an extra delay in [1, reorder_window]),
  /// which breaks per-pair FIFO delivery.
  double reorder = 0.0;
  /// Maximum extra delay for a reordered packet (and the bound on how late
  /// a duplicate trails the original).
  SimTime reorder_window = 2000;
  /// Uniform extra latency in [0, jitter] added to every packet.
  SimTime jitter = 0;

  bool any() const {
    return loss > 0.0 || duplicate > 0.0 || reorder > 0.0 || jitter > 0;
  }
};

class Network {
 public:
  /// `default_one_way_latency` applies to any pair without an explicit
  /// link. Telemetry resolves in the simulator's context, so a network on
  /// an isolated SimContext shares no state with other simulations.
  Network(Simulator& sim, SimTime default_one_way_latency)
      : sim_(sim),
        default_latency_(default_one_way_latency),
        packets_metric_(&sim.context().metrics().Counter("net.packets")),
        bytes_metric_(&sim.context().metrics().Counter("net.bytes")),
        dropped_metric_(&sim.context().metrics().Counter("net.dropped")),
        trace_(&sim.context().trace()) {
    SetFaultSeed(fault_seed_);  // Distinct default streams per fault type.
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; the returned id is this node's address.
  NodeId AddNode(PacketHandler handler);

  /// Replaces the handler for an existing node (used when a component is
  /// constructed after its address must be known).
  void SetHandler(NodeId node, PacketHandler handler);

  /// Sets the one-way latency between a and b (both directions).
  void SetLatency(NodeId a, NodeId b, SimTime one_way);

  SimTime LatencyBetween(NodeId a, NodeId b) const {
    // Short-circuit for topologies with no explicit links (micro setups,
    // unit tests): skips the hash lookup on every packet.
    if (link_latency_.empty()) return default_latency_;
    return LatencyLookup(a, b);
  }

  /// Delivers pkt to pkt.dst after the link latency. Packets between a pair
  /// of nodes are delivered in FIFO order (the event queue is stable and
  /// latency per pair is constant) — unless the fault model reorders or
  /// drops them, which exercises retry and lease-recovery paths.
  ///
  /// `depart` is how long the packet waits in its sender's NIC before it
  /// leaves (see ClientMachine): on a clean fabric the delivery is
  /// scheduled directly at now + depart + latency, so a NIC hop costs no
  /// event of its own, and the packet's wire span starts at its departure.
  void Send(const Packet& pkt, SimTime depart = 0);

  // --- Deterministic adversary (fault injection) ---

  /// Seeds every fault stream (loss, duplication, reorder, jitter) from one
  /// master seed. The testbed passes its run seed here, so loss patterns
  /// vary across seeded sweeps while identical seeds replay byte-for-byte.
  void SetFaultSeed(std::uint64_t seed);

  /// Sets an independent per-packet loss probability (default 0). The
  /// one-argument form draws from the SetFaultSeed-derived stream; pass an
  /// explicit seed to pin the drop pattern regardless of the fault seed.
  void SetLossProbability(double p);
  void SetLossProbability(double p, std::uint64_t seed);

  /// Fault model applied to every link without an explicit override.
  void SetDefaultFaults(const LinkFaults& faults);

  /// Per-link override (both directions of the a<->b pair).
  void SetLinkFaults(NodeId a, NodeId b, const LinkFaults& faults);

  /// Removes every fault knob and partition: the network is pristine again
  /// (fault streams keep their positions; reseed with SetFaultSeed for a
  /// fresh replay).
  void ClearFaults();

  /// Timed partitions: a blocked pair (or node) black-holes every packet in
  /// both directions until unblocked. Drops count as packet losses.
  void BlockPair(NodeId a, NodeId b);
  void UnblockPair(NodeId a, NodeId b);
  void BlockNode(NodeId node);
  void UnblockNode(NodeId node);

  const LinkFaults& default_faults() const { return default_faults_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  std::uint64_t packets_duplicated() const { return packets_duplicated_; }
  std::uint64_t packets_reordered() const { return packets_reordered_; }
  std::size_t num_nodes() const { return handlers_.size(); }
  Simulator& sim() { return sim_; }

 private:
  static std::uint64_t PairKey(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  SimTime LatencyLookup(NodeId a, NodeId b) const;

  /// Slow path taken only while any fault or partition is configured; the
  /// clean-fabric hot path stays a single branch.
  void SendThroughFaults(const Packet& pkt);
  void DropPacket(const Packet& pkt);
  const LinkFaults& FaultsFor(NodeId a, NodeId b) const;
  bool Blocked(NodeId a, NodeId b) const;
  void RecomputeFaultsActive();
  std::uint64_t StreamState(std::uint64_t tag) const;

  /// The simulator's hottest event: delivery of one packet. A named struct
  /// (rather than a lambda) so the packet is stored directly in the event
  /// slot — it fits InlineEvent's buffer, making a hop allocation-free.
  struct PacketDelivery {
    Network* net;
    Packet pkt;
    void operator()() const { net->Deliver(pkt); }
  };
  static_assert(sizeof(PacketDelivery) <= InlineEvent::kInlineCapacity,
                "packet delivery must fit the inline event buffer");

  /// A packet leaving its sender's NIC while faults are active: it enters
  /// the fabric (and the fault model) only at its departure time.
  struct PacketDeparture {
    Network* net;
    Packet pkt;
    void operator()() const { net->Send(pkt); }
  };

  void Deliver(const Packet& pkt);

  /// Records a wire span from `start` to `start + latency` (or, if
  /// `dropped`, a drop instant at `start`) for a lock packet when tracing
  /// is on.
  void TracePacket(const Packet& pkt, SimTime start, SimTime latency,
                   bool dropped) const;

  Simulator& sim_;
  SimTime default_latency_;
  std::vector<PacketHandler> handlers_;
  std::unordered_map<std::uint64_t, SimTime> link_latency_;

  // Fault model. `faults_active_` caches whether any knob or partition is
  // set so the hot path pays one branch when the fabric is clean.
  LinkFaults default_faults_;
  std::unordered_map<std::uint64_t, LinkFaults> link_faults_;
  std::unordered_set<std::uint64_t> blocked_pairs_;
  std::vector<char> blocked_nodes_;
  std::size_t num_blocked_nodes_ = 0;
  bool faults_active_ = false;
  std::uint64_t fault_seed_ = 1;
  std::uint64_t loss_state_ = 1;
  std::uint64_t dup_state_ = 1;
  std::uint64_t reorder_state_ = 1;
  std::uint64_t jitter_state_ = 1;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_duplicated_ = 0;
  std::uint64_t packets_reordered_ = 0;
  MetricCounter* packets_metric_;
  MetricCounter* bytes_metric_;
  MetricCounter* dropped_metric_;
  TraceLog* trace_;
};

}  // namespace netlock
