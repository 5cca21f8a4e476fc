// Deterministic discrete-event queue. Events at the same time fire in the
// order they were scheduled (FIFO tie-breaking via a monotonically
// increasing sequence number), which keeps whole-simulation runs
// bit-reproducible for a given seed.
//
// Events carry a std::function action. The simulator schedules one event
// per radio transmission, whose closure is two pointers that std::function
// stores in place, so the message hot path schedules with zero heap
// allocations once the heap's vector has grown to the peak pending count
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

  /// Schedules `action` at absolute time `t`. Requires t >= now().
  void ScheduleAt(Time t, Action action);

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

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  uint64_t next_seq_ = 0;
  Time now_ = 0;
};

}  // namespace snapq

#endif  // SNAPQ_SIM_EVENT_QUEUE_H_
