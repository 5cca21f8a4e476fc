#include "sim/event_queue.h"

#include <utility>

#include "common/check.h"

namespace snapq {

void EventQueue::ScheduleAt(Time t, Action action) {
  SNAPQ_CHECK_GE(t, now_);
  heap_.push(Event{t, next_seq_++, std::move(action)});
}

bool EventQueue::RunNext() {
  if (heap_.empty()) return false;
  // std::priority_queue::top() is const; moving the action out is safe
  // because we pop immediately after.
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  now_ = ev.time;
  ev.action();
  return true;
}

void EventQueue::RunUntil(Time t) {
  while (!heap_.empty() && heap_.top().time <= t) {
    RunNext();
  }
  now_ = std::max(now_, t);
}

void EventQueue::RunAll() {
  while (RunNext()) {
  }
}

}  // namespace snapq
