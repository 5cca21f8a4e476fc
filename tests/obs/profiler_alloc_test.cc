// Acceptance bar for the profiler's hot-path cost (same harness as
// trace_alloc_test): with the profiler disabled, the instrumented
// simulator message path must allocate EXACTLY as much as it would with
// no profiler in the build — and because the profiler's storage is fixed
// arrays, even the ENABLED profiler must add zero heap allocations.
#include <gtest/gtest.h>

#include "obs/profiler.h"
#include "sim/simulator.h"
#include "support/counting_allocator.h"

namespace snapq {
namespace {

Simulator MakeSim() {
  SimConfig config;
  config.seed = 11;
  return Simulator({{0, 0}, {1, 0}, {2, 0}}, {1.5, 1.5, 1.5}, config);
}

Message DataMsg() {
  Message m;
  m.type = MessageType::kData;
  m.from = 0;
  m.to = kBroadcastId;
  m.value = 1.0;
  return m;
}

/// The measured workload: the broadcast send/deliver path that carries
/// the obs::ProfCount instrumentation sites.
uint64_t CountWorkloadAllocations(Simulator& sim) {
  for (NodeId i = 0; i < 3; ++i) {
    sim.SetHandler(i, [](const Message&, bool) {});
  }
  const Message m = DataMsg();
  // Warm up vectors and the event queue so steady-state growth does not
  // differ between runs.
  for (int i = 0; i < 16; ++i) {
    sim.Send(m);
    sim.RunAll();
  }
  const uint64_t before = AllocationCount();
  for (int i = 0; i < 256; ++i) {
    sim.Send(m);
    sim.ScheduleAfter(1, [&sim, m] { sim.Send(m); });
    sim.RunAll();
  }
  return AllocationCount() - before;
}

TEST(ProfilerAllocTest, DisabledProfilerAddsNoHeapAllocations) {
  obs::Profiler::Disable();
  Simulator plain = MakeSim();
  const uint64_t baseline = CountWorkloadAllocations(plain);
  EXPECT_GT(baseline, 0u);  // the harness must measure something

  // Run again, still disabled: identical workload, identical count. This
  // pins the disabled fast path to a pointer load — any hidden allocation
  // (lazy init, logging, string building) breaks equality.
  Simulator again = MakeSim();
  const uint64_t disabled = CountWorkloadAllocations(again);
  EXPECT_EQ(disabled, baseline);
  EXPECT_EQ(obs::Profiler::Global().count(obs::HotOp::kMessagesSent), 0u);
}

TEST(ProfilerAllocTest, EnabledProfilerAlsoAddsNoHeapAllocations) {
  obs::Profiler::Disable();
  Simulator plain = MakeSim();
  const uint64_t baseline = CountWorkloadAllocations(plain);

  obs::Profiler::Global().Reset();
  obs::Profiler::Enable();
  Simulator profiled = MakeSim();
  const uint64_t enabled = CountWorkloadAllocations(profiled);
  obs::Profiler::Disable();

  // Fixed enum-indexed arrays: counting is an array add, never malloc.
  EXPECT_EQ(enabled, baseline);
  // And the instrumentation actually ran.
  EXPECT_GT(obs::Profiler::Global().count(obs::HotOp::kMessagesSent), 0u);
  EXPECT_GT(obs::Profiler::Global().count(obs::HotOp::kMessagesDelivered),
            0u);
}

}  // namespace
}  // namespace snapq
