// Tests for wire serialization: buffer primitives, LockHeader and
// RdmaHeader round-trips, malformed-input rejection, and byte-order checks.
#include <gtest/gtest.h>

#include "common/random.h"
#include "net/lock_wire.h"
#include "net/wire.h"
#include "rdma/rdma.h"

namespace netlock {
namespace {

TEST(BufWriterTest, BigEndianLayout) {
  std::uint8_t buf[16] = {};
  BufWriter w(buf);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0102030405060708ull);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[1], 0x34);
  EXPECT_EQ(buf[2], 0xde);
  EXPECT_EQ(buf[5], 0xef);
  EXPECT_EQ(buf[6], 0x01);
  EXPECT_EQ(buf[13], 0x08);
}

TEST(BufWriterTest, OverflowSetsError) {
  std::uint8_t buf[3] = {};
  BufWriter w(buf);
  w.WriteU32(1);
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.written(), 0u);  // Nothing partial.
}

TEST(BufReaderTest, RoundTripsWriter) {
  std::uint8_t buf[32] = {};
  BufWriter w(buf);
  w.WriteU8(7);
  w.WriteU16(300);
  w.WriteU32(70000);
  w.WriteU64(1ull << 40);
  BufReader r({buf, w.written()});
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU16(), 300);
  EXPECT_EQ(r.ReadU32(), 70000u);
  EXPECT_EQ(r.ReadU64(), 1ull << 40);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BufReaderTest, TruncationSetsError) {
  std::uint8_t buf[2] = {1, 2};
  BufReader r(buf);
  r.ReadU32();
  EXPECT_FALSE(r.ok());
}

TEST(LockHeaderTest, RoundTripAllFields) {
  LockHeader hdr;
  hdr.op = LockOp::kQueueEmpty;
  hdr.mode = LockMode::kShared;
  hdr.flags = kFlagBufferOnly | kFlagPushed;
  hdr.priority = 3;
  hdr.tenant = 42;
  hdr.lock_id = 0xabcdef01;
  hdr.txn_id = 0x1122334455667788ull;
  hdr.client_node = 17;
  hdr.timestamp = 987654321;
  hdr.aux = 5;
  Packet pkt;
  ASSERT_TRUE(hdr.SerializeTo(pkt));
  EXPECT_EQ(pkt.size(), LockHeader::kWireSize);
  const auto parsed = LockHeader::Parse(pkt);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, hdr);
}

TEST(LockHeaderTest, RejectsBadMagic) {
  LockHeader hdr;
  Packet pkt;
  ASSERT_TRUE(hdr.SerializeTo(pkt));
  pkt.mutable_payload()[0] ^= 0xff;
  EXPECT_FALSE(LockHeader::Parse(pkt).has_value());
}

TEST(LockHeaderTest, RejectsTruncated) {
  LockHeader hdr;
  Packet pkt;
  ASSERT_TRUE(hdr.SerializeTo(pkt));
  pkt.set_size(LockHeader::kWireSize - 1);
  EXPECT_FALSE(LockHeader::Parse(pkt).has_value());
}

TEST(LockHeaderTest, RejectsInvalidOpAndMode) {
  LockHeader hdr;
  Packet pkt;
  ASSERT_TRUE(hdr.SerializeTo(pkt));
  pkt.mutable_payload()[2] = 0x7f;  // op byte out of range.
  EXPECT_FALSE(LockHeader::Parse(pkt).has_value());
  ASSERT_TRUE(hdr.SerializeTo(pkt));
  pkt.mutable_payload()[3] = 9;  // mode byte out of range.
  EXPECT_FALSE(LockHeader::Parse(pkt).has_value());
}

TEST(LockHeaderTest, EmptyPacketRejected) {
  Packet pkt;
  EXPECT_FALSE(LockHeader::Parse(pkt).has_value());
}

// Property: random headers round-trip bit-exactly.
TEST(LockHeaderTest, PropertyRandomRoundTrip) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    LockHeader hdr;
    hdr.op = static_cast<LockOp>(rng.NextBounded(7));
    hdr.mode = static_cast<LockMode>(rng.NextBounded(2));
    hdr.flags = static_cast<std::uint8_t>(rng.NextBounded(8));
    hdr.priority = static_cast<Priority>(rng.NextBounded(16));
    hdr.tenant = static_cast<TenantId>(rng());
    hdr.lock_id = static_cast<LockId>(rng());
    hdr.txn_id = rng();
    hdr.client_node = static_cast<NodeId>(rng());
    hdr.timestamp = rng();
    hdr.aux = static_cast<std::uint32_t>(rng());
    Packet pkt;
    ASSERT_TRUE(hdr.SerializeTo(pkt));
    const auto parsed = LockHeader::Parse(pkt);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, hdr);
  }
}

// The slot<->header mapping the switch and the lock server share: a
// request's fields survive header -> slot -> header, the slot takes the
// given timestamp, and the rebuilt header carries the requested op.
TEST(LockHeaderTest, SlotMappingRoundTrip) {
  LockHeader request;
  request.op = LockOp::kAcquire;
  request.lock_id = 42;
  request.mode = LockMode::kShared;
  request.txn_id = 0x1234'5678'9abcull;
  request.client_node = 17;
  request.tenant = 5;
  request.timestamp = 111;
  const QueueSlot slot = SlotFromHeader(request, /*timestamp=*/999);
  EXPECT_EQ(slot.mode, LockMode::kShared);
  EXPECT_EQ(slot.txn_id, request.txn_id);
  EXPECT_EQ(slot.client_node, 17u);
  EXPECT_EQ(slot.tenant, 5u);
  EXPECT_EQ(slot.timestamp, 999u);

  const LockHeader grant = HeaderFromSlot(LockOp::kGrant, 42, slot);
  EXPECT_EQ(grant.op, LockOp::kGrant);
  EXPECT_EQ(grant.lock_id, 42u);
  EXPECT_EQ(grant.mode, LockMode::kShared);
  EXPECT_EQ(grant.txn_id, request.txn_id);
  EXPECT_EQ(grant.client_node, 17u);
  EXPECT_EQ(grant.tenant, 5u);
  EXPECT_EQ(grant.timestamp, 999u);
  EXPECT_EQ(grant.flags, 0u);
  EXPECT_EQ(grant.aux, 0u);
  EXPECT_EQ(SlotFromHeader(grant, grant.timestamp), slot);
}

// Property: random byte strings never crash the parser and are either
// rejected or parse to a header that re-serializes identically.
TEST(LockHeaderTest, PropertyFuzzedBytesSafe) {
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    Packet pkt;
    const std::size_t n = rng.NextBounded(Packet::kMaxPayload + 1);
    for (std::size_t b = 0; b < n; ++b) {
      pkt.mutable_payload()[b] = static_cast<std::uint8_t>(rng());
    }
    pkt.set_size(n);
    const auto parsed = LockHeader::Parse(pkt);
    if (parsed) {
      Packet out;
      ASSERT_TRUE(parsed->SerializeTo(out));
      EXPECT_EQ(std::vector<std::uint8_t>(pkt.payload().begin(),
                                          pkt.payload().begin() +
                                              LockHeader::kWireSize),
                std::vector<std::uint8_t>(out.payload().begin(),
                                          out.payload().end()));
    }
  }
}

TEST(RdmaHeaderTest, RoundTrip) {
  RdmaHeader hdr;
  hdr.verb = RdmaVerb::kCompareAndSwap;
  hdr.is_response = true;
  hdr.addr = 0x12345678;
  hdr.value = 0xaabbccddeeff0011ull;
  hdr.compare = 42;
  hdr.op_id = 7;
  Packet pkt;
  ASSERT_TRUE(hdr.SerializeTo(pkt));
  const auto parsed = RdmaHeader::Parse(pkt);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->verb, hdr.verb);
  EXPECT_EQ(parsed->is_response, hdr.is_response);
  EXPECT_EQ(parsed->addr, hdr.addr);
  EXPECT_EQ(parsed->value, hdr.value);
  EXPECT_EQ(parsed->compare, hdr.compare);
  EXPECT_EQ(parsed->op_id, hdr.op_id);
}

TEST(RdmaHeaderTest, LockAndRdmaMagicsDisjoint) {
  // A lock packet must never parse as RDMA and vice versa.
  LockHeader lock;
  Packet pkt;
  ASSERT_TRUE(lock.SerializeTo(pkt));
  EXPECT_FALSE(RdmaHeader::Parse(pkt).has_value());
  RdmaHeader rdma;
  Packet pkt2;
  ASSERT_TRUE(rdma.SerializeTo(pkt2));
  EXPECT_FALSE(LockHeader::Parse(pkt2).has_value());
}

TEST(PacketTest, SizeBounds) {
  Packet pkt;
  pkt.set_size(Packet::kMaxPayload);
  EXPECT_EQ(pkt.size(), Packet::kMaxPayload);
  EXPECT_DEATH(pkt.set_size(Packet::kMaxPayload + 1), "CHECK");
}

}  // namespace
}  // namespace netlock
