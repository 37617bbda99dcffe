// Tests for the discrete-event simulator: event ordering, FIFO tie-breaks,
// network latency and loss, and the rate-limited service queue.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/sim_context.h"
#include "net/lock_wire.h"
#include "sim/network.h"
#include "sim/service_queue.h"
#include "sim/simulator.h"

namespace netlock {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(5, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedSchedulingObservesNow) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.Schedule(10, [&]() {
    sim.Schedule(5, [&]() { inner_time = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, 15u);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&]() { ++fired; });
  sim.Schedule(300, [&]() { ++fired; });
  sim.RunUntil(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 200u);
  sim.RunUntil(400);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1, []() {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventCountTracked) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, []() {});
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

// A reserved sequence number keeps the place in the (when, seq) order it
// had when reserved, however late the event is pushed.
TEST(SimulatorTest, ReservedEventFiresInReservationOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(100, [&]() { order.push_back(0); });
  const std::uint64_t seq = queue.ReserveSeq();
  queue.Push(100, [&]() { order.push_back(2); });
  queue.Push(100, [&]() { order.push_back(3); });
  queue.Push(50, [&]() { order.push_back(-1); });
  queue.PushReserved(100, seq, [&]() { order.push_back(1); });
  while (!queue.Empty()) queue.InvokeAndRecycle(queue.PopEntry().slot);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
}

TEST(SimulatorTest, ScheduleReservedFromInsideAnEvent) {
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t seq = sim.ReserveSeq();
  sim.ScheduleAt(20, [&]() { order.push_back(2); });
  sim.Schedule(10, [&]() {
    order.push_back(0);
    // Pushed after the event at 20 but reserved before it: fires first.
    sim.ScheduleReserved(20, seq, [&]() { order.push_back(1); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(InlineEventTest, InvokesAndMovesInlineCallable) {
  int calls = 0;
  InlineEvent ev([&calls]() { ++calls; });
  ASSERT_TRUE(static_cast<bool>(ev));
  EXPECT_FALSE(ev.uses_heap());
  ev();
  EXPECT_EQ(calls, 1);
  InlineEvent moved(std::move(ev));
  EXPECT_FALSE(static_cast<bool>(ev));  // NOLINT: testing moved-from state.
  moved();
  EXPECT_EQ(calls, 2);
  InlineEvent assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(calls, 3);
}

TEST(InlineEventTest, DestroysCapturedStateExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    InlineEvent ev([counter]() { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    InlineEvent moved(std::move(ev));
    EXPECT_EQ(counter.use_count(), 2);  // Relocate, not copy.
    moved();
  }
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(*counter, 1);
}

TEST(InlineEventTest, PacketSizedCallableStaysInline) {
  struct PacketLike {
    void* net;
    Packet pkt;
    void operator()() const {}
  };
  static_assert(sizeof(PacketLike) <= InlineEvent::kInlineCapacity);
  InlineEvent ev(PacketLike{nullptr, Packet{}});
  EXPECT_FALSE(ev.uses_heap());
}

TEST(InlineEventTest, OversizedCallableFallsBackToHeap) {
  struct Huge {
    unsigned char blob[InlineEvent::kInlineCapacity + 64] = {};
    int* hits;
    void operator()() const { ++*hits; }
  };
  int hits = 0;
  Huge huge;
  huge.hits = &hits;
  InlineEvent ev(huge);
  EXPECT_TRUE(ev.uses_heap());
  InlineEvent moved(std::move(ev));  // Heap relocate = pointer steal.
  moved();
  EXPECT_EQ(hits, 1);
}

TEST(SimulatorTest, ReentrantSlotReuseIsSafe) {
  // A firing event schedules more work; arena slots recycle beneath it.
  Simulator sim;
  int fired = 0;
  std::function<void(int)> chain = [&](int depth) {
    ++fired;
    if (depth > 0) {
      sim.Schedule(1, [&chain, depth]() { chain(depth - 1); });
      sim.Schedule(2, [&fired]() { ++fired; });
    }
  };
  sim.Schedule(1, [&chain]() { chain(50); });
  sim.Run();
  EXPECT_EQ(fired, 51 + 50);
}

TEST(SimulatorTest, DepthGaugeSampledButHighWaterExact) {
  SimContext context;
  Simulator sim(&context);
  MetricGauge& gauge = context.metrics().Gauge("sim.pending_events");
  // Far fewer pushes than the sampling interval: the gauge would read a
  // stale value without reconciliation, but the high-water mark must be
  // exact after Run().
  for (int i = 0; i < 37; ++i) sim.Schedule(i, []() {});
  EXPECT_EQ(sim.max_pending_events(), 37u);
  sim.Run();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.high_water(), 37);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(NetworkTest, DeliversAfterLatency) {
  Simulator sim;
  Network net(sim, 2500);
  SimTime delivered_at = 0;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b =
      net.AddNode([&](const Packet&) { delivered_at = sim.now(); });
  Packet pkt;
  pkt.src = a;
  pkt.dst = b;
  net.Send(pkt);
  sim.Run();
  EXPECT_EQ(delivered_at, 2500u);
}

TEST(NetworkTest, PerPairLatencyOverridesDefault) {
  Simulator sim;
  Network net(sim, 2500);
  SimTime delivered_at = 0;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b =
      net.AddNode([&](const Packet&) { delivered_at = sim.now(); });
  net.SetLatency(a, b, 700);
  Packet pkt;
  pkt.src = a;
  pkt.dst = b;
  net.Send(pkt);
  sim.Run();
  EXPECT_EQ(delivered_at, 700u);
}

TEST(NetworkTest, FifoPerPair) {
  Simulator sim;
  Network net(sim, 1000);
  std::vector<std::size_t> sizes;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b =
      net.AddNode([&](const Packet& p) { sizes.push_back(p.size()); });
  for (std::size_t i = 1; i <= 10; ++i) {
    Packet pkt;
    pkt.src = a;
    pkt.dst = b;
    pkt.set_size(i);
    net.Send(pkt);
  }
  sim.Run();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sizes[i], i + 1);
}

TEST(NetworkTest, LossDropsConfiguredFraction) {
  Simulator sim;
  Network net(sim, 10);
  int received = 0;
  const NodeId a = net.AddNode(nullptr);
  const NodeId b = net.AddNode([&](const Packet&) { ++received; });
  net.SetLossProbability(0.25, /*seed=*/99);
  for (int i = 0; i < 10000; ++i) {
    Packet pkt;
    pkt.src = a;
    pkt.dst = b;
    net.Send(pkt);
  }
  sim.Run();
  EXPECT_NEAR(received, 7500, 200);
  EXPECT_EQ(net.packets_dropped(), 10000u - received);
}

TEST(ServiceQueueTest, IdleItemTakesServiceTime) {
  Simulator sim;
  ServiceQueue queue(sim, 100);
  SimTime done = 0;
  queue.Submit([&]() { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, 100u);
}

TEST(ServiceQueueTest, BackToBackItemsQueue) {
  Simulator sim;
  ServiceQueue queue(sim, 100);
  std::vector<SimTime> done;
  for (int i = 0; i < 5; ++i) {
    queue.Submit([&]() { done.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(done, (std::vector<SimTime>{100, 200, 300, 400, 500}));
}

TEST(ServiceQueueTest, SaturationThroughputMatchesRate) {
  Simulator sim;
  ServiceQueue queue(sim, 444);  // ~2.25M items/s.
  std::uint64_t completed = 0;
  // Closed loop: resubmit on completion, 4 outstanding.
  std::function<void()> resubmit = [&]() {
    ++completed;
    queue.Submit(resubmit);
  };
  for (int i = 0; i < 4; ++i) queue.Submit(resubmit);
  sim.RunUntil(kSecond);
  // Stop the self-perpetuating load by measuring now.
  EXPECT_NEAR(static_cast<double>(completed), 1e9 / 444, 1e9 / 444 * 0.01);
}

TEST(ServiceQueueTest, PerItemServiceTimes) {
  Simulator sim;
  ServiceQueue queue(sim, 100);
  std::vector<SimTime> done;
  queue.SubmitWithTime(370, [&]() { done.push_back(sim.now()); });
  queue.SubmitWithTime(100, [&]() { done.push_back(sim.now()); });
  sim.Run();
  EXPECT_EQ(done, (std::vector<SimTime>{370, 470}));
}

TEST(ServiceQueueTest, QueueingDelayVisible) {
  Simulator sim;
  ServiceQueue queue(sim, 200);
  queue.Submit([]() {});
  queue.Submit([]() {});
  EXPECT_EQ(queue.QueueingDelay(), 400u);
  sim.Run();
  EXPECT_EQ(queue.QueueingDelay(), 0u);
}

}  // namespace
}  // namespace netlock
