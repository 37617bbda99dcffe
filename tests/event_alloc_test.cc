// Proves the simulator hot path is allocation-free in steady state: a
// packet send/deliver loop — after a warmup that grows the event arena and
// heap to their working size — must perform ZERO global operator new/delete
// calls (an InlineEvent that fell back to the heap would be one). This is
// the acceptance gate for the pool-backed event representation;
// std::function<void()> events allocated once per hop here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/sim_context.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the global allocation functions. All forms
// funnel through malloc/free so replaced and library-internal paths stay
// compatible; only the count matters. The scalar new and the sized delete
// are kept out of line: inlined, they expose their malloc() or free() to
// GCC, which then pairs it with the `new` or `delete` expression on the
// other side and reports -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) -
                                         1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace netlock {
namespace {

TEST(EventAllocTest, SteadyStatePacketLoopIsAllocationFree) {
  SimContext context;
  Simulator sim(&context);
  Network net(sim, /*default_one_way_latency=*/1000);
  std::uint64_t delivered = 0;
  const NodeId receiver = net.AddNode([&](const Packet&) { ++delivered; });
  const NodeId sender = net.AddNode(nullptr);
  Packet pkt;
  pkt.src = sender;
  pkt.dst = receiver;
  pkt.set_size(32);

  // Warmup: grow the event arena, the priority-queue storage, and any
  // network-internal state to working size, with the same outstanding
  // depth the measured loop uses.
  constexpr int kOutstanding = 64;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kOutstanding; ++i) net.Send(pkt);
    while (sim.Step()) {
    }
  }

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < kOutstanding; ++i) net.Send(pkt);
    while (sim.Step()) {
    }
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(news_after - news_before, 0u)
      << "packet hot loop allocated on the heap";
  EXPECT_EQ(delivered, 64u * 1020u);
}

TEST(EventAllocTest, TimerLambdaLoopIsAllocationFree) {
  SimContext context;
  Simulator sim(&context);
  std::uint64_t fired = 0;
  // Warmup.
  for (int i = 0; i < 256; ++i) sim.Schedule(i, [&fired]() { ++fired; });
  sim.Run();

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 256; ++i) sim.Schedule(i, [&fired]() { ++fired; });
    sim.Run();
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - news_before, 0u);
  EXPECT_EQ(fired, 256u * 1001u);
}

}  // namespace
}  // namespace netlock
