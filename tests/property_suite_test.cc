// Cross-module randomized properties checked against independent
// reference implementations: the event queue against std::multimap
// scheduling, the fidelity tracker against a brute-force replay,
// Trace::ValueAt against linear scan, and shortest-path delays against
// the triangle inequality.

#include <map>
#include <vector>

#include "common/random.h"
#include "core/fidelity.h"
#include "gtest/gtest.h"
#include "net/routing.h"
#include "net/topology_generator.h"
#include "sim/event_queue.h"
#include "trace/synthetic.h"

namespace d3t {
namespace {

// ---------------------------------------------------------------------------
// Event queue vs reference

/// Drives an EventQueue with a random schedule/run mix and checks every
/// fired event against a std::multimap keyed by (when, insertion seq),
/// ordered exactly like the queue promises. With `same_instant_p` > 0 the
/// handler also schedules new events at the instant it is running.
class QueueVsReference : public sim::EventHandler {
 public:
  QueueVsReference(uint64_t seed, double same_instant_p)
      : rng_(seed), same_instant_p_(same_instant_p) {}

  void Schedule(sim::SimTime when) {
    const uint64_t seq = next_seq_++;
    queue_.Schedule(when, sim::Event::Delivery(0, seq));
    reference_.emplace(std::make_pair(when, seq), seq);
  }

  void RunNext() {
    ASSERT_FALSE(reference_.empty());
    expected_ = reference_.begin();
    queue_.RunNext(*this);
  }

  void HandleEvent(sim::SimTime t, const sim::Event& event) override {
    EXPECT_EQ(t, expected_->first.first);
    EXPECT_EQ(event.b, expected_->second);
    reference_.erase(expected_);
    ++fired_;
    if (rng_.NextDouble() < same_instant_p_) Schedule(t);
  }

  Rng& rng() { return rng_; }
  bool empty() const { return queue_.empty(); }
  size_t pending() const { return reference_.size(); }
  uint64_t fired() const { return fired_; }

 private:
  using Reference = std::multimap<std::pair<sim::SimTime, uint64_t>, uint64_t>;

  Rng rng_;
  double same_instant_p_;
  sim::EventQueue queue_;
  Reference reference_;
  Reference::iterator expected_;
  uint64_t next_seq_ = 0;
  uint64_t fired_ = 0;
};

TEST(PropertySuite, EventQueueMatchesReferenceOrdering) {
  struct Mix {
    uint64_t distinct_times;  // scheduled times are drawn from [0, this)
    double schedule_p;        // else run the earliest event
    double same_instant_p;    // reschedule from inside the handler
    int ops;
  };
  const Mix mixes[] = {
      // Spread-out times: ordering is mostly by time.
      {100000, 0.55, 0.0, 3000},
      // Heavy ties: thousands of pending events on a handful of instants,
      // some scheduled at the running instant from inside the handler, so
      // insertion order must survive many heap re-sifts.
      {4, 0.7, 0.3, 6000},
  };
  for (const Mix& mix : mixes) {
    for (uint64_t seed : {11u, 12u, 13u, 14u}) {
      QueueVsReference check(seed, mix.same_instant_p);
      for (int op = 0; op < mix.ops; ++op) {
        if (check.rng().NextDouble() < mix.schedule_p || check.empty()) {
          check.Schedule(static_cast<sim::SimTime>(
              check.rng().NextBounded(mix.distinct_times)));
        } else {
          check.RunNext();
        }
      }
      // RunNext asserts the reference still holds an event, so draining
      // both to empty pins that the queue lost and invented nothing.
      while (!check.empty()) check.RunNext();
      EXPECT_EQ(check.pending(), 0u);
      EXPECT_GT(check.fired(), static_cast<uint64_t>(mix.ops / 2));
    }
  }
}

// ---------------------------------------------------------------------------
// Fidelity tracker vs brute-force replay

TEST(PropertySuite, FidelityTrackerMatchesBruteForceReplay) {
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    Rng rng(seed);
    const core::Coherency c = rng.NextDoubleInRange(0.05, 0.5);
    const double initial = 10.0;
    core::FidelityTracker tracker(c, initial);

    // Random interleaving of source/repo value steps at integer times.
    struct Event {
      sim::SimTime t;
      bool is_source;
      double value;
    };
    std::vector<Event> events;
    sim::SimTime t = 0;
    for (int i = 0; i < 200; ++i) {
      t += 1 + static_cast<sim::SimTime>(rng.NextBounded(50));
      events.push_back(Event{t, rng.NextBernoulli(0.5),
                             initial + rng.NextDoubleInRange(-1.0, 1.0)});
    }
    const sim::SimTime end = t + 10;
    for (const Event& event : events) {
      if (event.is_source) {
        tracker.OnSourceValue(event.t, event.value);
      } else {
        tracker.OnRepositoryValue(event.t, event.value);
      }
    }
    tracker.Finalize(end);

    // Brute force: piecewise-constant replay between event times.
    double source = initial, repo = initial;
    sim::SimTime out_of_sync = 0;
    sim::SimTime prev = 0;
    auto violated = [&] { return std::abs(source - repo) > c + 1e-6; };
    for (const Event& event : events) {
      if (violated()) out_of_sync += event.t - prev;
      prev = event.t;
      (event.is_source ? source : repo) = event.value;
    }
    if (violated()) out_of_sync += end - prev;

    EXPECT_EQ(tracker.out_of_sync_time(), out_of_sync) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Lazy (trace-bound) tracker vs eager push replay

TEST(PropertySuite, LazyTrackerMatchesEagerTracker) {
  // The two feeding modes must agree bit-for-bit: the lazy tracker sees
  // the source process only through its bound trace (caught up on repo
  // updates and at Finalize), the eager one is pushed every change.
  for (uint64_t seed : {61u, 62u, 63u, 64u, 65u}) {
    Rng rng(seed);
    const core::Coherency c = rng.NextDoubleInRange(0.05, 0.5);
    const double initial = 10.0;

    std::vector<trace::Tick> ticks = {{0, initial}};
    sim::SimTime t = 0;
    for (int i = 0; i < 300; ++i) {
      t += 1 + static_cast<sim::SimTime>(rng.NextBounded(40));
      // Mix genuine changes with value-repeating polls.
      const double value = rng.NextBernoulli(0.3)
                               ? ticks.back().value
                               : initial + rng.NextDoubleInRange(-1.0, 1.0);
      ticks.push_back({t, value});
    }

    struct RepoEvent {
      sim::SimTime t;
      double value;
    };
    std::vector<RepoEvent> repo_events;
    sim::SimTime rt = 0;
    for (int i = 0; i < 60; ++i) {
      rt += 1 + static_cast<sim::SimTime>(rng.NextBounded(200));
      repo_events.push_back(
          {rt, initial + rng.NextDoubleInRange(-1.0, 1.0)});
    }
    const sim::SimTime end = std::max(t, rt) + 10;

    // Bind the raw timeline, repeats included — the lazy cursor must
    // skip them exactly like the eager replay (which never pushes them).
    core::FidelityTracker lazy(c, &ticks);
    core::FidelityTracker eager(c, initial);
    size_t cursor = 1;
    double last_source = initial;
    auto push_source_until = [&](sim::SimTime limit) {
      while (cursor < ticks.size() && ticks[cursor].time <= limit) {
        if (ticks[cursor].value != last_source) {
          last_source = ticks[cursor].value;
          eager.OnSourceValue(ticks[cursor].time, last_source);
        }
        ++cursor;
      }
    };
    for (const RepoEvent& event : repo_events) {
      push_source_until(event.t);
      eager.OnRepositoryValue(event.t, event.value);
      lazy.OnRepositoryValue(event.t, event.value);
    }
    push_source_until(end);
    eager.Finalize(end);
    lazy.Finalize(end);

    EXPECT_EQ(lazy.out_of_sync_time(), eager.out_of_sync_time())
        << "seed " << seed;
    EXPECT_EQ(lazy.LossPercent(), eager.LossPercent()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Trace::ValueAt vs linear reference

TEST(PropertySuite, ValueAtMatchesLinearScan) {
  Rng rng(31);
  trace::SyntheticTraceOptions options;
  options.tick_count = 500;
  Result<trace::Trace> trace = trace::GenerateSyntheticTrace(options, rng);
  ASSERT_TRUE(trace.ok());
  const auto& ticks = trace->ticks();
  auto reference = [&](sim::SimTime t) {
    double v = ticks.front().value;
    for (const trace::Tick& tick : ticks) {
      if (tick.time > t) break;
      v = tick.value;
    }
    return v;
  };
  for (int i = 0; i < 2000; ++i) {
    const sim::SimTime t = static_cast<sim::SimTime>(
        rng.NextBounded(static_cast<uint64_t>(ticks.back().time) + 1000));
    EXPECT_DOUBLE_EQ(trace->ValueAt(t), reference(t)) << "t=" << t;
  }
  // Exact tick boundaries.
  for (size_t k = 0; k < ticks.size(); k += 37) {
    EXPECT_DOUBLE_EQ(trace->ValueAt(ticks[k].time), ticks[k].value);
    EXPECT_DOUBLE_EQ(trace->ValueAt(ticks[k].time - 1), reference(ticks[k].time - 1));
  }
}

// ---------------------------------------------------------------------------
// Shortest paths satisfy the triangle inequality & identity axioms

TEST(PropertySuite, ShortestPathDelaysAreAMetric) {
  Rng rng(41);
  net::TopologyGeneratorOptions options;
  options.router_count = 60;
  options.repository_count = 12;
  Result<net::Topology> topo = net::GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  Result<net::RoutingTables> routing =
      net::RoutingTables::FloydWarshall(*topo);
  ASSERT_TRUE(routing.ok());
  const size_t n = topo->node_count();
  for (int trial = 0; trial < 4000; ++trial) {
    const net::NodeId a = static_cast<net::NodeId>(rng.NextBounded(n));
    const net::NodeId b = static_cast<net::NodeId>(rng.NextBounded(n));
    const net::NodeId k = static_cast<net::NodeId>(rng.NextBounded(n));
    EXPECT_LE(routing->Delay(a, b),
              routing->Delay(a, k) + routing->Delay(k, b));
    EXPECT_EQ(routing->Delay(a, a), 0);
    EXPECT_GE(routing->Delay(a, b), 0);
  }
}

// ---------------------------------------------------------------------------
// Pareto tail: the generated link-delay family really is heavy-tailed

TEST(PropertySuite, ParetoTailHeavierThanExponential) {
  Rng rng(51);
  const double mean = 15.0, minimum = 2.0;
  size_t pareto_extreme = 0, expo_extreme = 0;
  const double threshold = 10.0 * mean;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextParetoWithMean(minimum, mean) > threshold) ++pareto_extreme;
    if (rng.NextExponential(mean) > threshold) ++expo_extreme;
  }
  // Exponential beyond 10 means: e^-10 ~ 4.5e-5 of samples (~9 of 200k).
  // The Pareto with alpha ~1.15 lands two orders of magnitude higher.
  EXPECT_GT(pareto_extreme, expo_extreme * 10);
}

}  // namespace
}  // namespace d3t
