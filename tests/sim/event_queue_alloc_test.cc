// Acceptance bar for the zero-allocation event hot path (same global
// new/delete harness as profiler_alloc_test): once the event queue's heap
// vector and the simulator's transmission pool are warm, scheduling a
// small-capture action and delivering a broadcast message — vectors and
// receiver list and all — must perform ZERO heap allocations, and the
// pooled Send path must keep the profiler's kMessagesSent accounting
// intact.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "obs/profiler.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "support/counting_allocator.h"

namespace snapq {
namespace {

TEST(EventQueueAllocTest, InlineActionsScheduleWithZeroAllocations) {
  EventQueue queue;
  uint64_t fired = 0;
  // Warm-up: some standard libraries lazily allocate on first use of
  // unrelated machinery; one full schedule/run cycle flushes that out.
  queue.ScheduleAt(queue.now(), [&fired] { ++fired; });
  ASSERT_TRUE(queue.RunNext());

  const uint64_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) {
    queue.ScheduleAt(queue.now() + 1, [&fired] { ++fired; });
    ASSERT_TRUE(queue.RunNext());
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(fired, 1001u);
}

TEST(EventQueueAllocTest, WarmBurstSchedulesWithZeroAllocations) {
  EventQueue queue;
  uint64_t fired = 0;
  auto burst = [&] {
    for (int i = 0; i < 256; ++i) {
      queue.ScheduleAt(queue.now() + i, [&fired] { ++fired; });
    }
    queue.RunAll();
  };
  burst();  // grows the heap's vector to 256 pending events

  const uint64_t before = AllocationCount();
  burst();
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(fired, 512u);
}

TEST(EventQueueAllocTest, OversizedCaptureFallsBackToOneHeapAllocation) {
  // Sanity check that the harness measures: a capture too big for
  // std::function's in-place storage must allocate.
  EventQueue queue;
  std::array<char, 80> big{};
  uint64_t fired = 0;
  queue.ScheduleAt(queue.now(), [&fired] { ++fired; });  // warm-up
  ASSERT_TRUE(queue.RunNext());

  const uint64_t before = AllocationCount();
  queue.ScheduleAt(queue.now(), [big, &fired] {
    (void)big;
    ++fired;
  });
  ASSERT_TRUE(queue.RunNext());
  EXPECT_GE(AllocationCount() - before, 1u);
  EXPECT_EQ(fired, 2u);
}

/// `n` nodes on a line, pairwise in range: every broadcast reaches all
/// n - 1 others.
Simulator MakeSim(NodeId n = 3) {
  SimConfig config;
  config.seed = 7;
  std::vector<Point> positions;
  for (NodeId i = 0; i < n; ++i) {
    positions.push_back({static_cast<double>(i), 0});
  }
  return Simulator(std::move(positions), std::vector<double>(n, n + 0.5),
                   config);
}

/// A broadcast with every payload vector populated — the worst case for
/// the pooled Message copy (all three vectors must reuse capacity).
Message PayloadMsg() {
  Message m;
  m.type = MessageType::kRepAck;
  m.from = 0;
  m.to = kBroadcastId;
  m.value = 3.5;
  m.ids = {1, 2};
  m.epochs = {4, 5};
  m.values = {0.25, 0.75};
  return m;
}

TEST(EventQueueAllocTest, SteadyStateDeliveryIsAllocationFree) {
  obs::Profiler::Disable();
  // 3 nodes, and 33 for a wide fan-out whose pooled receiver list holds
  // 32 entries.
  for (const NodeId n : {NodeId{3}, NodeId{33}}) {
    SCOPED_TRACE(n);
    Simulator sim = MakeSim(n);
    uint64_t delivered = 0;
    for (NodeId i = 0; i < n; ++i) {
      sim.SetHandler(i, [&delivered](const Message&, bool) { ++delivered; });
    }
    const Message m = PayloadMsg();
    // Warm up the transmission pool, the pooled message's vector and
    // receiver-list capacities and the event queue's backing vector.
    for (int i = 0; i < 16; ++i) {
      sim.Send(m);
      sim.RunAll();
    }

    const uint64_t before = AllocationCount();
    const uint64_t delivered_before = delivered;
    for (int i = 0; i < 512; ++i) {
      sim.Send(m);
      sim.RunAll();
    }
    EXPECT_EQ(AllocationCount() - before, 0u);
    // Each broadcast reaches the n - 1 other nodes in range.
    EXPECT_EQ(delivered - delivered_before, 512u * (n - 1));
  }
}

TEST(EventQueueAllocTest, PooledSendKeepsProfilerAccountingIntact) {
  obs::Profiler::Global().Reset();
  obs::Profiler::Enable();
  Simulator sim = MakeSim();
  for (NodeId i = 0; i < 3; ++i) {
    sim.SetHandler(i, [](const Message&, bool) {});
  }
  const Message m = PayloadMsg();
  const uint64_t sent_before =
      obs::Profiler::Global().count(obs::HotOp::kMessagesSent);
  for (int i = 0; i < 100; ++i) {
    sim.Send(m);
    sim.RunAll();
  }
  obs::Profiler::Disable();
  // One kMessagesSent per Send, regardless of pooling or fan-out.
  EXPECT_EQ(obs::Profiler::Global().count(obs::HotOp::kMessagesSent) -
                sent_before,
            100u);
  EXPECT_GE(obs::Profiler::Global().count(obs::HotOp::kMessagesDelivered),
            200u);
}

}  // namespace
}  // namespace snapq
