#include <functional>
#include <vector>

#include "gtest/gtest.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace d3t::sim {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Millis(12.5), 12500);
  EXPECT_EQ(Seconds(1.0), 1000000);
  EXPECT_DOUBLE_EQ(ToMillis(12500), 12.5);
  EXPECT_DOUBLE_EQ(ToSeconds(2500000), 2.5);
}

/// Records every event it receives, then runs `on_event` (when set) so a
/// test can schedule further events from inside the handler.
struct RecordingHandler : EventHandler {
  struct Seen {
    SimTime t;
    Event event;
  };
  std::vector<Seen> seen;
  std::function<void(SimTime, const Event&)> on_event;

  void HandleEvent(SimTime t, const Event& event) override {
    seen.push_back({t, event});
    if (on_event) on_event(t, event);
  }

  /// The `a` payload of every event, in firing order.
  std::vector<uint32_t> Payloads() const {
    std::vector<uint32_t> out;
    for (const Seen& s : seen) out.push_back(s.event.a);
    return out;
  }
};

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  RecordingHandler handler;
  q.Schedule(30, Event::NodeProcess(3));
  q.Schedule(10, Event::NodeProcess(1));
  q.Schedule(20, Event::NodeProcess(2));
  while (!q.empty()) q.RunNext(handler);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  RecordingHandler handler;
  for (uint32_t i = 0; i < 10; ++i) q.Schedule(5, Event::NodeProcess(i));
  while (!q.empty()) q.RunNext(handler);
  ASSERT_EQ(handler.seen.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(handler.seen[i].event.a, i);
}

TEST(EventQueueTest, PeekTimeIsEarliestPending) {
  EventQueue q;
  RecordingHandler handler;
  q.Schedule(9, Event::NodeProcess(2));
  q.Schedule(5, Event::NodeProcess(1));
  EXPECT_EQ(q.PeekTime(), 5);
  EXPECT_EQ(q.RunNext(handler), 5);
  EXPECT_EQ(q.PeekTime(), 9);
  EXPECT_EQ(q.RunNext(handler), 9);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
}

TEST(EventQueueTest, TypedEventsDispatchThroughHandler) {
  EventQueue q;
  RecordingHandler handler;
  q.Schedule(20, Event::Delivery(7, 42));
  q.Schedule(10, Event::SourceTick(3, 5));
  q.Schedule(30, Event::NodeProcess(9));
  while (!q.empty()) q.RunNext(handler);
  ASSERT_EQ(handler.seen.size(), 3u);
  EXPECT_EQ(handler.seen[0].t, 10);
  EXPECT_EQ(handler.seen[0].event.kind, EventKind::kSourceTick);
  EXPECT_EQ(handler.seen[0].event.a, 3u);
  EXPECT_EQ(handler.seen[0].event.b, 5u);
  EXPECT_EQ(handler.seen[1].event.kind, EventKind::kDelivery);
  EXPECT_EQ(handler.seen[1].event.a, 7u);
  EXPECT_EQ(handler.seen[1].event.b, 42u);
  EXPECT_EQ(handler.seen[2].event.kind, EventKind::kNodeProcess);
  EXPECT_EQ(handler.seen[2].event.a, 9u);
}

// The handler the queue calls back into may schedule further events.
TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  RecordingHandler handler;
  handler.on_event = [&](SimTime t, const Event&) {
    if (handler.seen.size() < 5) q.Schedule(t + 1, Event::FinalizeHook());
  };
  q.Schedule(0, Event::FinalizeHook());
  while (!q.empty()) q.RunNext(handler);
  ASSERT_EQ(handler.seen.size(), 5u);
  EXPECT_EQ(handler.seen.back().t, 4);
}

TEST(SimulatorTest, NowAdvancesWithEvents) {
  RecordingHandler handler;
  Simulator sim(handler);
  SimTime now_inside = -1;
  handler.on_event = [&](SimTime, const Event&) { now_inside = sim.now(); };
  sim.ScheduleAfter(100, Event::NodeProcess(0));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 1u);
  ASSERT_EQ(handler.seen.size(), 1u);
  EXPECT_EQ(handler.seen[0].t, 100);
  EXPECT_EQ(now_inside, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RunUntilHorizonLeavesLaterEvents) {
  RecordingHandler handler;
  Simulator sim(handler);
  sim.ScheduleAt(10, Event::NodeProcess(1));
  sim.ScheduleAt(20, Event::NodeProcess(2));
  sim.ScheduleAt(30, Event::NodeProcess(3));
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(sim.now(), 20);
  // The later event stayed pending and fires on the next run.
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 1u);
  EXPECT_EQ(handler.Payloads(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  RecordingHandler handler;
  Simulator sim(handler);
  handler.on_event = [&](SimTime, const Event& event) {
    if (event.a == 0) sim.ScheduleAfter(5, Event::NodeProcess(1));
  };
  sim.ScheduleAfter(10, Event::NodeProcess(0));
  sim.RunUntil(kSimTimeMax);
  ASSERT_EQ(handler.seen.size(), 2u);
  EXPECT_EQ(handler.seen[0].t, 10);
  EXPECT_EQ(handler.seen[1].t, 15);
}

TEST(SimulatorTest, ZeroDelaySelfChainTerminates) {
  RecordingHandler handler;
  Simulator sim(handler);
  handler.on_event = [&](SimTime, const Event&) {
    if (handler.seen.size() < 1000) sim.ScheduleAfter(0, Event::FinalizeHook());
  };
  sim.ScheduleAfter(0, Event::FinalizeHook());
  sim.RunUntil(kSimTimeMax);
  EXPECT_EQ(handler.seen.size(), 1000u);
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorTest, DispatchesTypedEventsToRegisteredHandler) {
  RecordingHandler handler;
  Simulator sim(handler);
  sim.ScheduleAfter(100, Event::SourceTick(2, 4));
  sim.ScheduleAt(50, Event::Delivery(1, 3));
  sim.ScheduleAt(75, Event::PullPoll(6, 1));
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 3u);
  ASSERT_EQ(handler.seen.size(), 3u);
  EXPECT_EQ(handler.seen[0].t, 50);
  EXPECT_EQ(handler.seen[0].event.kind, EventKind::kDelivery);
  EXPECT_EQ(handler.seen[1].t, 75);
  EXPECT_EQ(handler.seen[1].event.kind, EventKind::kPullPoll);
  EXPECT_EQ(handler.seen[2].t, 100);
  EXPECT_EQ(handler.seen[2].event.kind, EventKind::kSourceTick);
}

TEST(SimulatorTest, ManyEventsStressOrder) {
  RecordingHandler handler;
  Simulator sim(handler);
  for (uint32_t i = 0; i < 20000; ++i) {
    // Pseudo-random but deterministic times, carried in the payload.
    const SimTime t = (i * 7919) % 10007;
    sim.ScheduleAt(t, Event::Delivery(i, static_cast<uint64_t>(t)));
  }
  EXPECT_EQ(sim.RunUntil(kSimTimeMax), 20000u);
  ASSERT_EQ(handler.seen.size(), 20000u);
  for (size_t i = 0; i < handler.seen.size(); ++i) {
    EXPECT_EQ(handler.seen[i].t,
              static_cast<SimTime>(handler.seen[i].event.b));
    if (i > 0) EXPECT_LE(handler.seen[i - 1].t, handler.seen[i].t);
  }
}

}  // namespace
}  // namespace d3t::sim
