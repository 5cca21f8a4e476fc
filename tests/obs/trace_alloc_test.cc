// Acceptance bar for the tracing hot path: with no tracer attached and
// with a tracer attached at sampling 0, the simulator's message path must
// allocate EXACTLY the same — zero tracer-attributable heap allocations.
// Enforced by replacing the global allocator with a counting one and
// running the identical workload under both setups.
#include <gtest/gtest.h>

#include "obs/tracer.h"
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

/// The measured workload: direct sends, scheduled sends (exercises the
/// ScheduleAt wrap decision), and handler-driven replies.
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

TEST(TraceAllocTest, SamplingZeroAddsNoHeapAllocationsToMessagePath) {
  Simulator plain = MakeSim();
  const uint64_t without_tracer = CountWorkloadAllocations(plain);

  Simulator traced = MakeSim();
  obs::TracerConfig config;
  config.sampling = 0.0;
  obs::Tracer tracer(config);
  traced.SetTracer(&tracer);
  const uint64_t with_disabled_tracer = CountWorkloadAllocations(traced);

  EXPECT_GT(without_tracer, 0u);  // the harness must measure something
  EXPECT_EQ(with_disabled_tracer, without_tracer);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TraceAllocTest, SampledTracingDoesAllocate) {
  // Sanity check that the counting harness sees tracer work when it is
  // actually on: a traced root makes the same workload allocate more.
  Simulator traced = MakeSim();
  obs::TracerConfig config;
  config.sampling = 1.0;
  obs::Tracer tracer(config);
  traced.SetTracer(&tracer);

  Simulator plain = MakeSim();
  const uint64_t without_tracer = CountWorkloadAllocations(plain);

  const TraceContext root = traced.MintTraceRoot(
      obs::TraceRootKind::kQuery, kInvalidNode);
  ASSERT_TRUE(root.sampled());
  Simulator::TraceScope scope(traced, root);
  const uint64_t with_tracing = CountWorkloadAllocations(traced);
  EXPECT_GT(with_tracing, without_tracer);
  EXPECT_FALSE(tracer.spans().empty());
}

}  // namespace
}  // namespace snapq
