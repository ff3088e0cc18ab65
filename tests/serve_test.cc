// Live serving pipeline: a FeedPublisher streams a trace library (and
// optional scenario script) as wire frames to a Node, which ingests the
// feed and replays it through a core::Engine whose every inter-member
// push crosses the data transport. The headline pin: the full
// publish -> ingest -> serve pipeline produces metrics byte-identical
// to a direct library-call Engine run on the same world. Plus the feed
// protocol's error envelope: every malformed feed is rejected with a
// precise, sticky Status.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/disseminator.h"
#include "core/engine.h"
#include "core/lela.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "net/fault_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "serve/node.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "gtest/gtest.h"

namespace d3t {
namespace {

exp::RunSpec SmallSpec() {
  exp::RunSpec spec;
  spec.overlay.coop_degree = 3;
  spec.seed = 77;
  spec.policy.policy = "distributed";
  return spec;
}

// The fixture World: 10 repositories on 40 routers, 4 items of 120
// ticks, seeded like SmallSpec().
Result<exp::SimulationSession> BuildSmallSession() {
  exp::NetworkConfig network;
  network.repositories = 10;
  network.routers = 40;
  exp::WorkloadConfig workload;
  workload.items = 4;
  workload.ticks = 120;
  return exp::SessionBuilder()
      .SetNetwork(network)
      .SetWorkload(workload)
      .SetSeed(SmallSpec().seed)
      .Build();
}

// Builds the same overlay twice (identical RNG stream) so the direct
// run and the served run each own one — a scenario repairs the overlay
// in place, so they cannot share.
core::Overlay BuildFixtureOverlay(const exp::World& world,
                                  const exp::RunSpec& spec) {
  core::LelaOptions lela;
  lela.coop_degree = spec.overlay.coop_degree;
  Rng rng = Rng(spec.seed).Fork(4);
  Result<core::LelaResult> built =
      core::BuildOverlay(world.delays(), world.interests(),
                         world.workload().items, lela, rng);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value().overlay;
}

core::EngineMetrics RunDirect(const exp::World& world,
                              const exp::RunSpec& spec,
                              const core::EngineOptions& options,
                              const core::Scenario* scenario) {
  core::Overlay overlay = BuildFixtureOverlay(world, spec);
  std::unique_ptr<core::Disseminator> policy =
      core::MakeDisseminator(spec.policy.policy);
  core::Engine engine(overlay, world.delays(), world.traces(), *policy,
                      options, /*change_timelines=*/nullptr, scenario);
  Result<core::EngineMetrics> metrics = engine.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return std::move(metrics).value();
}

void ExpectIdentical(const core::EngineMetrics& a,
                     const core::EngineMetrics& b) {
  EXPECT_EQ(a.loss_percent, b.loss_percent);
  EXPECT_EQ(a.pair_loss_percent, b.pair_loss_percent);
  EXPECT_EQ(a.tracked_pairs, b.tracked_pairs);
  EXPECT_EQ(a.per_member_loss, b.per_member_loss);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.source_messages, b.source_messages);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.source_checks, b.source_checks);
  EXPECT_EQ(a.source_updates, b.source_updates);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.scenario_ops, b.scenario_ops);
  EXPECT_EQ(a.repairs, b.repairs);
}

// Drives the feed to completion via the library's own loop and asserts
// it succeeded (serve::DriveFeed converts deadlock into a precise
// wedge error, so a protocol bug fails here instead of hanging).
void DriveFeedOk(serve::FeedPublisher& publisher, serve::Node& node) {
  const Status driven = serve::DriveFeed(publisher, node);
  ASSERT_TRUE(driven.ok()) << driven.ToString();
  ASSERT_TRUE(publisher.done());
  ASSERT_TRUE(node.feed_complete());
}

TEST(ServeTest, PipelineIsByteIdenticalToDirectRun) {
  const exp::RunSpec spec = SmallSpec();
  Result<exp::SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const exp::World& world = session->world();
  core::EngineOptions options;
  const core::EngineMetrics direct =
      RunDirect(world, spec, options, /*scenario=*/nullptr);

  core::Overlay overlay = BuildFixtureOverlay(world, spec);
  net::InProcTransport feed(/*peer_count=*/2, /*per_peer_capacity=*/32);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.feed_self = 0;
  node_options.policy = spec.policy.policy;
  node_options.engine = options;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), /*scenario=*/nullptr,
                                 overlay.member_count(), spec.seed, feed,
                                 /*self=*/1, /*subscribers=*/{0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);

  // Feed accounting: one hello + every tick + one shutdown.
  uint64_t total_ticks = 0;
  for (const trace::Trace& trace : world.traces()) {
    total_ticks += trace.size();
  }
  EXPECT_EQ(report->tick_frames, total_ticks);
  EXPECT_EQ(report->scenario_frames, 0u);
  EXPECT_EQ(report->feed_frames, total_ticks + 2);

  // Data-side accounting: every engine message crossed the wire, and
  // per-peer counters sum to the aggregate.
  EXPECT_EQ(report->data.frames_tx, report->engine.messages);
  EXPECT_EQ(report->data.frames_rx, report->engine.messages);
  EXPECT_EQ(report->data.decode_errors, 0u);
  ASSERT_EQ(report->per_peer.size(), overlay.member_count());
  uint64_t summed_tx = 0;
  for (const net::TransportMetrics& peer : report->per_peer) {
    summed_tx += peer.frames_tx;
  }
  EXPECT_EQ(summed_tx, report->data.frames_tx);
}

TEST(ServeTest, ScenarioOpsTravelTheFeedAndReplayIdentically) {
  const exp::RunSpec spec = SmallSpec();
  Result<exp::SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const exp::World& world = session->world();
  // Coherency renegotiation needs a (member, item) pair the member has
  // an own interest in; pick the first one the generated world holds.
  core::OverlayIndex cc_member = 0;
  core::ItemId cc_item = 0;
  for (size_t i = 0; i < world.interests().size() && cc_member == 0; ++i) {
    if (i + 1 == 3) continue;  // member 3 is down at t=30s
    for (const auto& [item, c] : world.interests()[i]) {
      cc_member = static_cast<core::OverlayIndex>(i + 1);
      cc_item = item;
      break;
    }
  }
  ASSERT_GT(cc_member, 0u);
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(10), 3)
                                        .RecoverAt(sim::Seconds(60))
                                        .ChangeCoherency(sim::Seconds(30),
                                                         cc_member, cc_item,
                                                         0.5)
                                        .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  core::EngineOptions options;
  options.repair_delay = sim::Millis(750);
  const core::EngineMetrics direct =
      RunDirect(world, spec, options, &*scenario);
  ASSERT_GT(direct.scenario_ops, 0u);

  core::Overlay overlay = BuildFixtureOverlay(world, spec);
  net::InProcTransport feed(2, 32);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.engine = options;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), &*scenario,
                                 overlay.member_count(), spec.seed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);
  EXPECT_EQ(report->scenario_frames, scenario->size());
  EXPECT_EQ(report->engine.scenario_ops, direct.scenario_ops);
}

TEST(ServeTest, StreamFeedWithBackpressureDeliversIdentically) {
  // Same pipeline, but the feed crosses the byte-stream transport with
  // a ring far smaller than the feed — Pump/Poll must interleave under
  // real backpressure, with frame boundaries recovered from headers.
  const exp::RunSpec spec = SmallSpec();
  Result<exp::SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const exp::World& world = session->world();
  core::EngineOptions options;
  const core::EngineMetrics direct =
      RunDirect(world, spec, options, /*scenario=*/nullptr);

  core::Overlay overlay = BuildFixtureOverlay(world, spec);
  net::StreamTransport feed(2, /*per_channel_bytes=*/256);
  ASSERT_TRUE(feed.Connect(/*from=*/1, /*to=*/0).ok());
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), nullptr,
                                 overlay.member_count(), spec.seed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);
  // The tiny ring genuinely filled: stalls were counted, never grown
  // past, and no byte was corrupted in transit.
  EXPECT_GT(feed.metrics().backpressure_stalls, 0u);
  EXPECT_EQ(feed.metrics().decode_errors, 0u);
}

// ---------------------------------------------------------------------------
// Feed protocol error envelope

struct IngestFixture {
  explicit IngestFixture(serve::NodeOptions node_options = {})
      : session(std::move(BuildSmallSession()).value()),
        overlay(BuildFixtureOverlay(session.world(), SmallSpec())),
        feed(2, 32),
        data(overlay.member_count(), 64),
        node(overlay, session.world().delays(), feed, data,
             node_options) {}

  // Feeds one frame (publisher peer 1 -> node peer 0) through PollFeed,
  // stamping the contiguous feed seq a healthy publisher would — these
  // tests target the PROTOCOL layer, not the sequence layer.
  Result<size_t> Feed(net::wire::Frame frame) {
    if (net::wire::IsFeedFrame(frame.type)) {
      net::wire::SetFeedSeq(frame, send_seq_++);
    }
    Status sent = feed.Send(1, 0, frame);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    return node.PollFeed();
  }

  // Feeds one frame with an explicit seq (sequence-layer tests).
  Result<size_t> FeedSeq(net::wire::Frame frame, uint32_t seq) {
    net::wire::SetFeedSeq(frame, seq);
    Status sent = feed.Send(1, 0, frame);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    return node.PollFeed();
  }

  net::wire::Frame Hello() const {
    return net::wire::Frame::Hello(
        0, static_cast<uint32_t>(overlay.member_count()),
        static_cast<uint32_t>(overlay.item_count()), /*world_seed=*/77);
  }

  exp::SimulationSession session;
  core::Overlay overlay;
  net::InProcTransport feed;
  net::InProcTransport data;
  serve::Node node;
  uint32_t send_seq_ = 0;
};

TEST(ServeTest, RejectsTicksBeforeHello) {
  IngestFixture fx;
  Result<size_t> polled =
      fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0));
  ASSERT_FALSE(polled.ok());
  EXPECT_TRUE(polled.status().IsFailedPrecondition());

  // The error is sticky: the node refuses everything afterwards.
  Result<size_t> again = fx.node.PollFeed();
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition());
}

TEST(ServeTest, RejectsDuplicateHelloAndWorldMismatch) {
  {
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> dup = fx.Feed(fx.Hello());
    ASSERT_FALSE(dup.ok());
    EXPECT_TRUE(dup.status().IsFailedPrecondition());
  }
  {
    IngestFixture fx;
    net::wire::Frame wrong = fx.Hello();
    wrong.u.hello.member_count += 1;
    Result<size_t> polled = fx.Feed(wrong);
    ASSERT_FALSE(polled.ok());
    EXPECT_TRUE(polled.status().IsInvalidArgument());
  }
}

TEST(ServeTest, RejectsMalformedTickSequences) {
  {
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> bad = fx.Feed(net::wire::Frame::SourceTick(
        static_cast<uint32_t>(fx.overlay.item_count()), 0, 0, 1.0));
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.status().IsOutOfRange());
  }
  {
    // tick_index skips ahead — a dropped frame must not go unnoticed.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
    Result<size_t> gap =
        fx.Feed(net::wire::Frame::SourceTick(0, 2, 2000, 3.0));
    ASSERT_FALSE(gap.ok());
    EXPECT_TRUE(gap.status().IsInvalidArgument());
  }
  {
    // Non-increasing timestamps.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    ASSERT_TRUE(
        fx.Feed(net::wire::Frame::SourceTick(0, 0, 1000, 1.0)).ok());
    Result<size_t> stale =
        fx.Feed(net::wire::Frame::SourceTick(0, 1, 1000, 2.0));
    ASSERT_FALSE(stale.ok());
    EXPECT_TRUE(stale.status().IsInvalidArgument());
  }
}

TEST(ServeTest, RejectsUnknownScenarioKindsAndForeignFrames) {
  {
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> bad = fx.Feed(
        net::wire::Frame::ScenarioOp(1000, /*kind=*/99, 1, 0, 0.0));
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.status().IsInvalidArgument());
  }
  {
    // An update frame belongs on the data transport, never the feed.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<size_t> foreign =
        fx.Feed(net::wire::Frame::Update(1, 2, 1000, 0, 1.0, 0.0));
    ASSERT_FALSE(foreign.ok());
    EXPECT_TRUE(foreign.status().IsInvalidArgument());
  }
}

TEST(ServeTest, RejectsIncompleteFeeds) {
  {
    // Shutdown while an item has no ticks at all.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
    Result<size_t> early = fx.Feed(net::wire::Frame::Shutdown(0));
    ASSERT_FALSE(early.ok());
    EXPECT_TRUE(early.status().IsInvalidArgument());
  }
  {
    // Serve before the shutdown frame arrived.
    IngestFixture fx;
    ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
    Result<serve::NodeReport> report = fx.node.Serve();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsFailedPrecondition());
  }
}

TEST(ServeTest, RejectsFramesAfterShutdown) {
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  int64_t at = 0;
  for (uint32_t item = 0; item < fx.overlay.item_count(); ++item) {
    ASSERT_TRUE(
        fx.Feed(net::wire::Frame::SourceTick(item, 0, ++at, 1.0)).ok());
  }
  ASSERT_TRUE(fx.Feed(net::wire::Frame::Shutdown(0)).ok());
  ASSERT_TRUE(fx.node.feed_complete());
  Result<size_t> late =
      fx.Feed(net::wire::Frame::SourceTick(0, 1, 5000, 2.0));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Feed sequence layer and reconnect-and-resubscribe recovery

TEST(ServeTest, StrictSeqGapNamesTheMissingRange) {
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  // Frames 1 and 2 vanished in transit; seq 3 arrives next.
  Result<size_t> gap =
      fx.FeedSeq(net::wire::Frame::SourceTick(0, 0, 0, 1.0), 3);
  ASSERT_FALSE(gap.ok());
  EXPECT_TRUE(gap.status().IsInvalidArgument());
  EXPECT_NE(gap.status().message().find("missing frames [1, 3)"),
            std::string::npos)
      << gap.status().message();
}

TEST(ServeTest, StrictStaleSeqIsAPreciseError) {
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  Result<size_t> stale = fx.FeedSeq(fx.Hello(), 0);  // duplicated frame
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("stale or duplicated seq 0"),
            std::string::npos)
      << stale.status().message();
}

TEST(ServeTest, ShutdownNamesMissingItemRanges) {
  // SmallConfig has 4 items; feed ticks for item 0 only, so the
  // completeness error must name the contiguous hole 1-3.
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
  Result<size_t> early = fx.Feed(net::wire::Frame::Shutdown(0));
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.status().message().find("no ticks for item(s) 1-3 of 4"),
            std::string::npos)
      << early.status().message();
}

TEST(ServeTest, ShutdownNamesScatteredMissingItems) {
  // Items 0 and 2 fed, 1 and 3 not: singletons, comma-separated.
  IngestFixture fx;
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(0, 0, 0, 1.0)).ok());
  ASSERT_TRUE(fx.Feed(net::wire::Frame::SourceTick(2, 0, 1, 1.0)).ok());
  Result<size_t> early = fx.Feed(net::wire::Frame::Shutdown(0));
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.status().message().find("no ticks for item(s) 1, 3 of 4"),
            std::string::npos)
      << early.status().message();
}

TEST(ServeTest, ResubscribeRecoversDroppedFeedFramesByteIdentically) {
  const exp::RunSpec spec = SmallSpec();
  Result<exp::SimulationSession> session = BuildSmallSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const exp::World& world = session->world();
  core::EngineOptions options;
  const core::EngineMetrics direct =
      RunDirect(world, spec, options, /*scenario=*/nullptr);

  core::Overlay overlay = BuildFixtureOverlay(world, spec);
  net::InProcTransport inner(2, 32);
  // Drop three publisher->node frames at different points of the feed;
  // filter from=1 so the node's own resubscribe requests are untouched.
  Result<net::FaultScript> script = net::FaultScript::Create(
      {net::FaultOp{5, 0, /*from=*/1, net::kAnyPeer, 0},
       net::FaultOp{40, 0, 1, net::kAnyPeer, 0},
       net::FaultOp{41, 0, 1, net::kAnyPeer, 0}});
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  net::FaultInjectingTransport feed(inner, *script, /*seed=*/9);
  net::InProcTransport data(overlay.member_count(), 64);
  serve::NodeOptions node_options;
  node_options.engine = options;
  node_options.resubscribe = true;
  node_options.feed_publisher = 1;
  serve::Node node(overlay, world.delays(), feed, data, node_options);
  serve::FeedPublisher publisher(world.traces(), nullptr,
                                 overlay.member_count(), spec.seed, feed,
                                 /*self=*/1, {0});
  DriveFeedOk(publisher, node);

  Result<serve::NodeReport> report = node.Serve();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectIdentical(direct, report->engine);
  // Recovery genuinely ran: faults fired, the node asked, the
  // publisher rewound.
  EXPECT_EQ(feed.faults_applied(), 3u);
  EXPECT_GT(report->resubscribes, 0u);
  EXPECT_EQ(report->resubscribes, publisher.resubscribes_handled());
}

TEST(ServeTest, ResubscribeBudgetExhaustionIsPrecise) {
  serve::NodeOptions node_options;
  node_options.resubscribe = true;
  node_options.feed_publisher = 1;
  node_options.max_resubscribes = 1;
  IngestFixture fx(node_options);
  ASSERT_TRUE(fx.Feed(fx.Hello()).ok());
  // A gap spends the single budgeted resubscribe...
  ASSERT_TRUE(
      fx.FeedSeq(net::wire::Frame::SourceTick(0, 0, 0, 1.0), 5).ok());
  // ...so the next recovery attempt is the first unrecoverable fault.
  Status nudged = fx.node.RequestMissing();
  ASSERT_FALSE(nudged.ok());
  EXPECT_TRUE(nudged.IsIoError());
  EXPECT_NE(nudged.message().find("feed recovery budget exhausted"),
            std::string::npos)
      << nudged.message();
  EXPECT_NE(nudged.message().find("still missing seq 1"), std::string::npos)
      << nudged.message();
}

TEST(ServeTest, ResubscribeOutsideReplayWindowIsPrecise) {
  // A publisher with a zero replay window cannot rewind at all: any
  // resubscribe below the high-water mark is a precise unrecoverable
  // loss, not a silent hang.
  std::vector<trace::Trace> traces;
  traces.emplace_back("item0", std::vector<trace::Tick>{{0, 1.0},
                                                        {1000, 2.0}});
  net::InProcTransport feed(2, 32);
  serve::FeedPublisherOptions pub_options;
  pub_options.replay_window = 0;
  serve::FeedPublisher publisher(traces, nullptr, /*member_count=*/4,
                                 /*world_seed=*/77, feed, /*self=*/1, {0},
                                 pub_options);
  while (!publisher.done()) {
    ASSERT_GT(publisher.Pump(), 0u) << publisher.status().ToString();
  }
  ASSERT_TRUE(feed.Send(0, 1, net::wire::Frame::Resubscribe(0, 0)).ok());
  publisher.Pump();
  ASSERT_FALSE(publisher.status().ok());
  EXPECT_TRUE(publisher.status().IsIoError());
  EXPECT_NE(publisher.status().message().find("outside the replay window"),
            std::string::npos)
      << publisher.status().message();
}

TEST(ServeTest, ResubscribeFromUnknownPeerIsRejected) {
  std::vector<trace::Trace> traces;
  traces.emplace_back("item0", std::vector<trace::Tick>{{0, 1.0}});
  net::InProcTransport feed(4, 32);
  serve::FeedPublisher publisher(traces, nullptr, 4, 77, feed, /*self=*/1,
                                 {0});
  ASSERT_TRUE(feed.Send(3, 1, net::wire::Frame::Resubscribe(3, 0)).ok());
  publisher.Pump();
  ASSERT_FALSE(publisher.status().ok());
  EXPECT_NE(publisher.status().message().find("unknown peer 3"),
            std::string::npos)
      << publisher.status().message();
}

}  // namespace
}  // namespace d3t
