// Discrete-event scheduler: the core loop of the fluid network simulator.
//
// Events are closures scheduled at absolute simulated times. The scheduler
// dispatches them in time order; ties are broken by insertion order so that
// runs are fully deterministic. Events can be cancelled through the handle
// returned at scheduling time; the flow simulator keeps one such handle, for
// its next-completion tick, and re-plans it when allocations change.
//
// The queue is one ordered map keyed by (time, insertion sequence). A
// cancelled event is erased on the spot, so the map holds exactly the
// pending events.

#ifndef SRC_SIM_EVENT_SCHEDULER_H_
#define SRC_SIM_EVENT_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "src/sim/sim_time.h"

namespace saba {

class EventScheduler;

// An event's place in the queue: its time, then its insertion sequence
// number, which is unique and orders same-time events first in, first out.
using EventKey = std::pair<SimTime, uint64_t>;

// Handle to a scheduled event. Copyable; all copies refer to the same event.
// A default-constructed handle refers to nothing and is inert. A handle must
// not outlive the scheduler that returned it.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly, after
  // the event fired, and on default-constructed handles.
  void Cancel();

  // True if the event is still queued and not cancelled.
  bool pending() const;

 private:
  friend class EventScheduler;

  EventHandle(EventScheduler* scheduler, EventKey key) : scheduler_(scheduler), key_(key) {}

  EventScheduler* scheduler_ = nullptr;
  EventKey key_;
};

// Single-threaded discrete-event scheduler.
//
// Typical usage:
//   EventScheduler sched;
//   sched.ScheduleAt(1.5, [&] { ... });
//   sched.Run();                        // runs until the queue drains
//
// Event callbacks may schedule further events, including at the current time
// (which dispatch after all earlier-scheduled same-time events).
class EventScheduler {
 public:
  EventScheduler() = default;

  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  // Current simulated time. Starts at 0 and only moves forward.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when`. `when` must not be in the
  // past; scheduling at exactly Now() is allowed and dispatches after events
  // already queued for Now(). Returns a cancellable handle.
  EventHandle ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules `fn` to run `delay` seconds from now.
  EventHandle ScheduleAfter(SimDuration delay, std::function<void()> fn);

  // Runs events until the queue is empty. Returns the number of events
  // dispatched (cancelled events are not counted).
  uint64_t Run();

  // Runs events with time <= `deadline`, then sets Now() to `deadline` if the
  // queue drained earlier or the next event is later. Returns the number of
  // events dispatched.
  uint64_t RunUntil(SimTime deadline);

  // Runs at most one event. Returns false if the queue is empty.
  bool Step();

  // Number of queued, non-cancelled events.
  size_t PendingCount() const { return queue_.size(); }

  // Total events dispatched over the scheduler's lifetime.
  uint64_t dispatched_count() const { return dispatched_; }

 private:
  friend class EventHandle;

  std::map<EventKey, std::function<void()>> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t dispatched_ = 0;
};

}  // namespace saba

#endif  // SRC_SIM_EVENT_SCHEDULER_H_
