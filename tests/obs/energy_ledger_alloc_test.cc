// Acceptance bar for the energy ledger's memory discipline (same global
// new/delete harness as timeseries_alloc_test): every Record* call and
// UpdateGauges must be allocation-free once constructed (cells, series
// and gauge handles are preallocated), and the simulator's charge sites
// must stay allocation-free in steady state BOTH without a ledger (the
// single null-pointer branch) and with one attached.
#include <gtest/gtest.h>

#include "net/energy.h"
#include "obs/energy_ledger.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"
#include "support/counting_allocator.h"

namespace snapq {
namespace {

constexpr int kIterations = 10000;

TEST(EnergyLedgerAllocTest, RecordAndUpdateGaugesNeverAllocate) {
  obs::MetricRegistry registry;
  EnergyModel model;
  model.initial_battery = 1e9;  // no deaths during the loop
  obs::EnergyLedger ledger(model, 100, &registry);

  ledger.UpdateGauges(0);  // warm-up (lazy libc machinery, if any)
  const uint64_t before = AllocationCount();
  for (Time t = 1; t <= kIterations; ++t) {
    const NodeId node = static_cast<NodeId>(t % 100);
    ledger.RecordMessage(node, MessageType::kHeartbeat,
                         obs::EnergyDirection::kTx, 1.0, /*root_slot=*/2);
    ledger.RecordMessage(node, MessageType::kData, obs::EnergyDirection::kRx,
                         0.25);
    ledger.RecordCacheOp(node, 0.1);
    ledger.RecordDirect(node, 0.5);
    ledger.UpdateGauges(t);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_GT(ledger.total_drained(), 0.0);
}

/// Steady-state charge-site loop shared by the with/without-ledger cases:
/// a broadcast (tx + rx charges), a cache op and a direct drain per tick.
uint64_t RunChargeSites(Simulator& sim) {
  Message msg;
  msg.type = MessageType::kData;
  msg.from = 0;
  msg.to = kBroadcastId;
  // Warm-up: fills the delivery pool and any lazy queue capacity.
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(msg);
    sim.ChargeCacheOp(1);
    sim.Drain(1, 0.01);
    sim.RunAll();
  }
  const uint64_t before = AllocationCount();
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(msg);
    sim.ChargeCacheOp(1);
    sim.Drain(1, 0.01);
    sim.RunAll();
  }
  return AllocationCount() - before;
}

TEST(EnergyLedgerAllocTest, ChargeSitesAreAllocationFreeWithoutALedger) {
  SimConfig config;
  config.energy.initial_battery = 1e9;
  Simulator sim({{0, 0}, {1, 0}}, {2.0, 2.0}, config);
  EXPECT_EQ(RunChargeSites(sim), 0u);
  EXPECT_EQ(sim.energy_ledger(), nullptr);
}

TEST(EnergyLedgerAllocTest, ChargeSitesAreAllocationFreeWithALedger) {
  SimConfig config;
  config.energy.initial_battery = 1e9;
  Simulator sim({{0, 0}, {1, 0}}, {2.0, 2.0}, config);
  obs::EnergyLedger ledger(config.energy, sim.num_nodes(), &sim.registry());
  sim.SetEnergyLedger(&ledger);
  EXPECT_EQ(RunChargeSites(sim), 0u);
  EXPECT_GT(ledger.total_drained(), 0.0);
  EXPECT_GT(ledger.CauseJoules(obs::EnergyCause::kData), 0.0);
  EXPECT_GT(ledger.CauseJoules(obs::EnergyCause::kCache), 0.0);
}

}  // namespace
}  // namespace snapq
