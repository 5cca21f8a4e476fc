// Acceptance bar for the link observer's memory discipline (same global
// new/delete harness as energy_ledger_alloc_test): every Record* call
// must be allocation-free once constructed (the open-addressing table is
// preallocated, first touches included), and the simulator's message path
// must stay allocation-free in steady state BOTH without an observer (the
// single null-pointer branch) and with one attached. AnalyzeTopology makes
// a fixed number of allocations whatever the node count: no per-node
// containers.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/link_model.h"
#include "net/topology.h"
#include "obs/topo.h"
#include "sim/simulator.h"
#include "support/counting_allocator.h"

namespace snapq {
namespace {

constexpr int kIterations = 10000;

TEST(TopoAllocTest, RecordSitesNeverAllocateEvenOnFirstTouch) {
  obs::LinkObserver observer(100);
  const uint64_t before = AllocationCount();
  // No warm-up: first touches insert into the preallocated table and must
  // be just as allocation-free as steady-state updates.
  for (int i = 0; i < kIterations; ++i) {
    const NodeId from = static_cast<NodeId>(i % 100);
    const NodeId to = static_cast<NodeId>((i + 1 + i / 100) % 100);
    observer.RecordDelivery(from, to, i);
    observer.RecordLoss(to, from, i);
    observer.RecordSnoop(from, to, i);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_GT(observer.num_links(), 0u);
}

TEST(TopoAllocTest, OverflowPathNeverAllocates) {
  obs::LinkObserver observer(100, /*max_links=*/4);
  for (int i = 0; i < 8; ++i) {
    observer.RecordDelivery(static_cast<NodeId>(i), 99, 0);  // fill + spill
  }
  const uint64_t before = AllocationCount();
  for (int i = 0; i < kIterations; ++i) {
    observer.RecordDelivery(static_cast<NodeId>(i % 100), 98, i);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_GT(observer.dropped_records(), 0u);
}

/// Steady-state message loop shared by the with/without-observer cases: a
/// broadcast (delivery records), an addressed unicast under loss (loss
/// records) and snooping enabled, per tick.
uint64_t RunMessagePath(Simulator& sim) {
  Message broadcast;
  broadcast.type = MessageType::kData;
  broadcast.from = 0;
  broadcast.to = kBroadcastId;
  Message unicast;
  unicast.type = MessageType::kHeartbeat;
  unicast.from = 1;
  unicast.to = 0;
  // Warm-up: fills the delivery pool and any lazy queue capacity.
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(broadcast);
    sim.Send(unicast);
    sim.RunAll();
  }
  const uint64_t before = AllocationCount();
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(broadcast);
    sim.Send(unicast);
    sim.RunAll();
  }
  return AllocationCount() - before;
}

SimConfig LossySnoopingConfig() {
  SimConfig config;
  config.energy.initial_battery = 1e9;
  config.loss_probability = 0.3;   // exercises RecordLoss
  config.snoop_probability = 0.5;  // exercises RecordSnoop
  return config;
}

TEST(TopoAllocTest, MessagePathAllocationFreeWithoutAnObserver) {
  Simulator sim({{0, 0}, {1, 0}, {0, 1}}, {2.0, 2.0, 2.0},
                LossySnoopingConfig());
  EXPECT_EQ(RunMessagePath(sim), 0u);
  EXPECT_EQ(sim.link_observer(), nullptr);
}

TEST(TopoAllocTest, MessagePathAllocationFreeWithAnObserver) {
  Simulator sim({{0, 0}, {1, 0}, {0, 1}}, {2.0, 2.0, 2.0},
                LossySnoopingConfig());
  obs::LinkObserver observer(sim.num_nodes());
  sim.SetLinkObserver(&observer);
  EXPECT_EQ(RunMessagePath(sim), 0u);
  EXPECT_GT(observer.num_links(), 0u);
  // The lossy run must have fed all three record sites.
  const std::vector<obs::LinkStats> links = observer.SortedLinks();
  uint64_t deliveries = 0, losses = 0, snoops = 0;
  for (const obs::LinkStats& l : links) {
    deliveries += l.deliveries;
    losses += l.losses;
    snoops += l.snoops;
  }
  EXPECT_GT(deliveries, 0u);
  EXPECT_GT(losses, 0u);
  EXPECT_GT(snoops, 0u);
}

/// Allocations made by one AnalyzeTopology call on the scale_sweep
/// geometry (range 0.2*sqrt(100/n)) with about 26% of the nodes as
/// representatives, each owning the unclaimed nodes it can reach. Three
/// of the n nodes form a path far outside the unit square, so every
/// snapshot has bridges and an articulation node whatever the placement.
uint64_t AnalyzeAllocations(size_t n) {
  const double range = 0.2 * std::sqrt(100.0 / static_cast<double>(n));
  Rng rng(5);
  std::vector<Point> positions = PlaceUniform(n - 3, Rect::UnitSquare(), rng);
  for (int i = 0; i < 3; ++i) positions.push_back({5.0, 5.0 + 0.9 * range * i});
  const LinkModel links(std::move(positions), std::vector<double>(n, range),
                        0.0);
  obs::ClusterView view;
  view.Resize(n);
  for (NodeId i = 0; i < n; ++i) view.is_rep[i] = rng.Bernoulli(0.26);
  for (NodeId rep = 0; rep < n; ++rep) {
    if (!view.is_rep[rep]) continue;
    for (NodeId j : links.Reachable(rep)) {
      if (!view.is_rep[j] && view.representative[j] == j) {
        view.representative[j] = rep;
      }
    }
  }
  const uint64_t before = AllocationCount();
  const obs::TopologySnapshot snap = obs::AnalyzeTopology(links, view, 0);
  const uint64_t allocations = AllocationCount() - before;
  // Every output list is non-empty, so each size pays its allocations.
  EXPECT_FALSE(snap.bridges.empty()) << n;
  EXPECT_FALSE(snap.articulation.empty()) << n;
  EXPECT_FALSE(snap.clusters.empty()) << n;
  EXPECT_GT(snap.clusters.front().size, 1u) << n;
  return allocations;
}

TEST(TopoAllocTest, AnalyzeTopologyAllocationsDoNotGrowWithNodeCount) {
  EXPECT_EQ(AnalyzeAllocations(100), AnalyzeAllocations(5000));
}

}  // namespace
}  // namespace snapq
