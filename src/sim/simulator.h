#ifndef D3T_SIM_SIMULATOR_H_
#define D3T_SIM_SIMULATOR_H_

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace d3t::sim {

/// Discrete-event simulation driver: owns the clock and the event queue
/// and advances time by dispatching events, in (time, insertion) order,
/// to the EventHandler it was built with.
class Simulator {
 public:
  explicit Simulator(EventHandler& handler) : handler_(&handler) {}

  SimTime now() const { return now_; }

  /// Schedules a typed event at absolute time `when` (>= now()).
  void ScheduleAt(SimTime when, Event event);

  /// Runs events until the queue empties or `horizon` is passed (events
  /// scheduled strictly after `horizon` are left pending; kSimTimeMax
  /// runs to exhaustion). Returns the number of events executed.
  uint64_t RunUntil(SimTime horizon);

 private:
  SimTime now_ = 0;
  EventQueue queue_;
  EventHandler* handler_;  // never null; a pointer keeps Simulator assignable
};

}  // namespace d3t::sim

#endif  // D3T_SIM_SIMULATOR_H_
