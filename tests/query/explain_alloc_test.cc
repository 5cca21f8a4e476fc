// Acceptance bar for the provenance hook: a null ExecutionOptions::
// provenance must add ZERO heap allocations to the non-EXPLAIN query path
// (same discipline as the tracer and profiler). Enforced by replacing the
// global allocator with a counting one and running identical query rounds
// with the hook absent vs present.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "query/executor.h"
#include "sim/simulator.h"
#include "snapshot/election.h"
#include "support/counting_allocator.h"

namespace snapq {
namespace {

struct Net {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  std::unique_ptr<QueryExecutor> executor;
};

Net MakeNet() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 4;
  config.rule4_hard_cap = 8;
  SimConfig sim_config;
  sim_config.energy.initial_battery = 1e9;
  Net net;
  net.sim = std::make_unique<Simulator>(
      std::vector<Point>{{0.1, 0.1}, {0.3, 0.1}, {0.5, 0.1}, {0.7, 0.1}},
      std::vector<double>(4, 10.0), sim_config);
  for (NodeId i = 0; i < 4; ++i) {
    net.agents.push_back(std::make_unique<SnapshotAgent>(
        i, net.sim.get(), config, 900 + i));
    net.agents.back()->Install();
    net.agents.back()->SetMeasurement(10.0 + i);
  }
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      if (i == j) continue;
      const double vi = net.agents[i]->measurement();
      const double vj = net.agents[j]->measurement();
      net.agents[i]->models().cache().Observe(j, vi - 1, vj - 1, 0);
      net.agents[i]->models().cache().Observe(j, vi + 1, vj + 1, 0);
    }
  }
  RunGlobalElection(*net.sim, net.agents, net.sim->now(), config);
  net.executor = std::make_unique<QueryExecutor>(
      net.sim.get(), &net.agents,
      Catalog::WithStandardRegions(Rect::UnitSquare()));
  return net;
}

const Rect kAll{0.0, 0.0, 1.0, 1.0};

/// Steady-state allocations of `rounds` query executions with `options`.
/// The warmup rounds let the registry/histograms and any per-call vectors
/// reach their steady size first.
uint64_t CountQueryAllocations(QueryExecutor& executor,
                               const ExecutionOptions& options, int rounds) {
  for (int i = 0; i < 8; ++i) {
    executor.ExecuteRegion(kAll, /*use_snapshot=*/true,
                           AggregateFunction::kSum, options);
  }
  const uint64_t before = AllocationCount();
  for (int i = 0; i < rounds; ++i) {
    executor.ExecuteRegion(kAll, /*use_snapshot=*/true,
                           AggregateFunction::kSum, options);
  }
  return AllocationCount() - before;
}

TEST(ExplainAllocTest, NullProvenanceHookAddsNoAllocationsToQueryPath) {
  // Two identical networks, identical workloads; the only difference is
  // whether ExecutionOptions carries a provenance hook. The null-hook
  // steady-state cost is the baseline; it must not change between the two
  // baseline runs (determinism check), and the charge_energy loop with its
  // per-node counters must be allocation-free at steady state too.
  Net a = MakeNet();
  Net b = MakeNet();
  ExecutionOptions options;
  options.charge_energy = true;
  const uint64_t first = CountQueryAllocations(*a.executor, options, 64);
  const uint64_t second = CountQueryAllocations(*b.executor, options, 64);
  EXPECT_EQ(first, second);

  // ExecuteRegion allocates per round regardless (claims map, routing
  // tree); what the guard promises is that NONE of those allocations are
  // provenance-attributable when the hook is null. A fresh hook each round
  // must therefore cost strictly more on the same workload.
  Net c = MakeNet();
  const uint64_t baseline = CountQueryAllocations(*c.executor, options, 64);
  Net d = MakeNet();
  uint64_t with_hook = 0;
  {
    for (int i = 0; i < 8; ++i) {
      d.executor->ExecuteRegion(kAll, true, AggregateFunction::kSum, options);
    }
    const uint64_t before = AllocationCount();
    for (int i = 0; i < 64; ++i) {
      QueryProvenance prov;
      ExecutionOptions hooked = options;
      hooked.provenance = &prov;
      d.executor->ExecuteRegion(kAll, true, AggregateFunction::kSum, hooked);
    }
    with_hook = AllocationCount() - before;
  }
  EXPECT_EQ(baseline, first);  // same workload, same steady-state cost
  EXPECT_GT(with_hook, baseline);  // the hook is where provenance pays
}

}  // namespace
}  // namespace snapq
