#include "src/sim/event_scheduler.h"

#include <cassert>
#include <utility>

namespace saba {

void EventHandle::Cancel() {
  if (scheduler_ != nullptr) {
    scheduler_->queue_.erase(key_);
  }
}

bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->queue_.count(key_) > 0;
}

EventHandle EventScheduler::ScheduleAt(SimTime when, std::function<void()> fn) {
  assert(when >= now_ && "cannot schedule an event in the past");
  assert(fn != nullptr);
  const EventKey key(when, next_seq_++);
  queue_.emplace(key, std::move(fn));
  return EventHandle(this, key);
}

EventHandle EventScheduler::ScheduleAfter(SimDuration delay, std::function<void()> fn) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool EventScheduler::Step() {
  if (queue_.empty()) {
    return false;
  }
  auto next = queue_.begin();
  now_ = next->first.first;
  // Dequeue before dispatch: the callback may schedule or cancel events.
  std::function<void()> fn = std::move(next->second);
  queue_.erase(next);
  ++dispatched_;
  fn();
  return true;
}

uint64_t EventScheduler::Run() {
  uint64_t n = 0;
  while (Step()) {
    ++n;
  }
  return n;
}

uint64_t EventScheduler::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
    Step();
    ++n;
  }
  if (deadline > now_) {
    now_ = deadline;
  }
  return n;
}

}  // namespace saba
