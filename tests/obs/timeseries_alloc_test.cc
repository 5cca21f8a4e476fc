// Acceptance bar for the telemetry engine's memory discipline (same
// global new/delete harness as event_queue_alloc_test): a disabled
// recorder must be a single branch — ZERO heap allocations — and an
// enabled one must sample every probe kind (gauge, counter rate, RSS,
// callback) allocation-free once constructed, because every ring is
// preallocated and instrument pointers are cached. The flight-recorder
// ring must likewise reach an allocation-free steady state once its
// string slots are warm.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/timeseries.h"
#include "support/counting_allocator.h"

namespace snapq::obs {
namespace {

TEST(TimeSeriesAllocTest, PushNeverAllocates) {
  TimeSeries series;  // rings preallocated at construction
  const uint64_t before = AllocationCount();
  // Far past both ring capacities, through several compactions.
  for (Time t = 0; t < 100000; ++t) {
    series.Push(t, static_cast<double>(t % 97));
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(series.num_samples(), 100000u);
}

TEST(TimeSeriesAllocTest, EnabledSamplingIsAllocationFree) {
  MetricRegistry registry;
  Gauge* gauge = registry.GetGauge("g");
  Counter* counter = registry.GetCounter("c");
  TelemetryRecorder recorder({}, &registry);
  recorder.TrackGauge("g");
  recorder.TrackCounterRate("c");
  recorder.TrackRss();
  double probe_value = 0.0;
  recorder.TrackProbe("p", [&probe_value] { return probe_value; });

  gauge->Set(1.0);
  recorder.SampleNow(0);  // warm-up (lazy libc machinery, if any)

  const uint64_t before = AllocationCount();
  for (Time t = 1; t <= 10000; ++t) {
    gauge->Set(static_cast<double>(t));
    counter->Inc(3);
    probe_value = static_cast<double>(t);
    recorder.SampleNow(t);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(recorder.num_samples(), 10001u);
  EXPECT_DOUBLE_EQ(recorder.series("c.rate")->last(), 3.0);
}

TEST(TimeSeriesAllocTest, DisabledRecorderIsASingleBranch) {
  MetricRegistry registry;
  TelemetryRecorder recorder({}, &registry);
  recorder.TrackGauge("g");
  recorder.TrackRss();
  recorder.set_enabled(false);

  const uint64_t before = AllocationCount();
  for (Time t = 0; t < 10000; ++t) recorder.SampleNow(t);
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(recorder.num_samples(), 0u);
}

TEST(TimeSeriesAllocTest, FlightRecorderSteadyStateIsAllocationFree) {
  FlightRecorder ring(64);
  const std::string line(120, 'x');
  // Warm-up: grow every slot's string capacity once around the ring.
  for (int i = 0; i < 128; ++i) ring.Write(line);

  const uint64_t before = AllocationCount();
  for (int i = 0; i < 1000; ++i) ring.Write(line);
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(ring.size(), 64u);
  EXPECT_EQ(ring.total_written(), 1128u);
}

}  // namespace
}  // namespace snapq::obs
