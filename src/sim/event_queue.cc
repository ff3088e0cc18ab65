#include "sim/event_queue.h"

#include <cassert>

namespace d3t::sim {

// d3t-lint: hot
void EventQueue::Schedule(SimTime when, Event event) {
  assert(when >= 0);
  heap_.push(Entry{when, next_seq_++, event});
}

SimTime EventQueue::PeekTime() const {
  if (heap_.empty()) return kSimTimeMax;
  return heap_.top().when;
}

// d3t-lint: hot
SimTime EventQueue::RunNext(EventHandler& handler) {
  assert(!heap_.empty());
  // Copy out before popping: the handler may schedule further events.
  const Entry top = heap_.top();
  heap_.pop();
  handler.HandleEvent(top.when, top.event);
  return top.when;
}

}  // namespace d3t::sim
