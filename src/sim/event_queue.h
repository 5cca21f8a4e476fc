// Deterministic discrete-event queue. Events at the same time fire in the
// order they were scheduled (FIFO tie-breaking via a monotonically
// increasing sequence number), which keeps whole-simulation runs
// bit-reproducible for a given seed.
//
// Events carry a std::function action. The simulator's pooled delivery
// closure is two pointers, which std::function stores in place, so the
// per-message delivery hot path schedules with zero heap allocations once
// the underlying heap vector has warmed up
// (tests/sim/event_queue_alloc_test.cc pins this).
#ifndef SNAPQ_SIM_EVENT_QUEUE_H_
#define SNAPQ_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "net/node_id.h"

namespace snapq {

/// Priority queue of (time, seq, action) triples ordered by time then seq.
class EventQueue {
 public:
  using Action = std::function<void()>;

  EventQueue();

  /// Schedules `action` at absolute time `t`. Requires t >= now().
  void ScheduleAt(Time t, Action action);

  /// Pre-sizes the heap's backing vector so the next `n` pending events
  /// do not reallocate it.
  void Reserve(size_t n);

  /// Runs the earliest pending event, advancing the clock to its time.
  /// Returns false when the queue is empty.
  bool RunNext();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void RunUntil(Time t);

  /// Runs to exhaustion.
  void RunAll();

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  Time now() const { return now_; }

 private:
  struct Event {
    Time time;
    uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// priority_queue keeps its container protected; exposing it lets
  /// Reserve() pre-size the backing vector (capacity growth is the only
  /// allocation the event hot path can perform).
  struct Heap : std::priority_queue<Event, std::vector<Event>, Later> {
    using std::priority_queue<Event, std::vector<Event>, Later>::c;
  };

  Heap heap_;
  uint64_t next_seq_ = 0;
  Time now_ = 0;
};

}  // namespace snapq

#endif  // SNAPQ_SIM_EVENT_QUEUE_H_
