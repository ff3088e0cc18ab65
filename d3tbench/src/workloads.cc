#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "common/random.h"
#include "common/stats.h"
#include "core/coop_degree.h"
#include "core/disseminator.h"
#include "core/fidelity.h"
#include "core/interest.h"
#include "core/lela.h"
#include "core/overlay.h"
#include "core/scenario.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "net/delay_model.h"
#include "net/routing.h"
#include "net/socket_transport.h"
#include "net/topology_generator.h"
#include "net/transport.h"
#include "obs/recorder.h"
#include "serve/node.h"
#include "trace/synthetic.h"

namespace d3tbench {
namespace {

namespace core = d3t::core;
namespace exp = d3t::exp;
namespace net = d3t::net;
namespace serve = d3t::serve;
using d3t::Result;
using d3t::Status;

// ---------------------------------------------------------------------------
// Workload shapes

/// What one workload builds and runs. Every field is fixed per
/// workload and scale; only the seed varies between runs.
struct Shape {
  exp::NetworkConfig network;
  exp::WorkloadConfig workload;
  /// Cooperation degrees of the push runs of one repetition.
  std::vector<size_t> degrees;
  /// Eq. (2) caps the offered degree (paper §6.3.5).
  bool controlled = false;
  /// paper_sweep: one adaptive-TTR pull run per repetition.
  bool pull = false;
  /// large_world: push runs, each with its own generated churn script.
  size_t churn_runs = 0;
  /// wire_serve: each repetition is feed + served run + direct run.
  bool serve = false;
  /// Worker threads of the streaming Dijkstra build (never 0, which
  /// would mean "one per hardware thread").
  size_t build_threads = 1;
  /// World builds whose median is setup_s.
  int setup_repeats = 3;
  /// paper_sweep and large_world end every repetition with a source
  /// feed of the first `feed_ticks` ticks of every item (0 = the whole
  /// trace).
  size_t feed_ticks = 0;
};

/// Threads of large_world's routing build; clamped to the CPUs the
/// process may use.
constexpr size_t kLargeWorldThreads = 4;

Result<Shape> ShapeFor(const std::string& name, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  Shape shape;
  if (name == "paper_sweep") {
    // §6.1 base case: 1 source, 100 repositories, 600 routers, 100
    // items, Floyd-Warshall routing.
    shape.network.repositories = tiny ? 20 : 100;
    shape.network.routers = tiny ? 120 : 600;
    shape.workload.items = tiny ? 8 : 100;
    shape.workload.ticks = tiny ? 300 : 500;
    shape.degrees = {1, 2};
    shape.pull = true;
    shape.setup_repeats = tiny ? 2 : 15;
    shape.feed_ticks = tiny ? 100 : 250;
  } else if (name == "large_world") {
    // 2000 repositories on 12000 routers, streamed Dijkstra rows, 20
    // items on a short trace, ~5% of repositories bouncing.
    shape.network.repositories = tiny ? 60 : 2000;
    shape.network.routers = tiny ? 360 : 12000;
    shape.network.use_floyd_warshall = false;
    shape.workload.items = tiny ? 4 : 20;
    shape.workload.ticks = tiny ? 200 : 250;
    shape.degrees = {shape.network.repositories};  // Eq. (2) decides
    shape.controlled = true;
    // Repair cost is heavy-tailed in which repositories fail, so four
    // scripts per repetition keep run_s from hinging on one draw.
    shape.churn_runs = 4;
    shape.build_threads = std::min(kLargeWorldThreads, UsableCpus());
    shape.setup_repeats = tiny ? 2 : 3;
  } else if (name == "wire_serve") {
    // Base-case-shaped world with fewer items.
    shape.network.repositories = tiny ? 20 : 100;
    shape.network.routers = tiny ? 120 : 600;
    shape.workload.items = tiny ? 4 : 20;
    shape.workload.ticks = tiny ? 300 : 2500;
    shape.degrees = {5};
    shape.serve = true;
    shape.setup_repeats = tiny ? 2 : 15;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return shape;
}

// ---------------------------------------------------------------------------
// The substrate a repetition runs over

/// Read-only views of a world: the Session's World in untraced
/// repetitions, the traced run's own decomposed build otherwise.
struct Substrate {
  const net::OverlayDelayModel* delays = nullptr;
  const std::vector<d3t::trace::Trace>* traces = nullptr;
  const core::ChangeTimelines* timelines = nullptr;
  const std::vector<core::InterestSet>* interests = nullptr;
  d3t::StreamingStats pair_stats;
  double mean_hops = 0.0;
};

Substrate FromWorld(const exp::World& world) {
  Substrate sub;
  sub.delays = &world.delays(0);
  sub.traces = &world.traces();
  sub.timelines = &world.change_timelines();
  sub.interests = &world.interests();
  sub.pair_stats = world.pair_delay_stats(0);
  sub.mean_hops = world.mean_pair_hops(0);
  return sub;
}

/// The traced run's world: SessionBuilder::Build's steps issued one by
/// one, each under its own span, with Build's RNG stream assignment so
/// the result is the same World.
struct DecomposedWorld {
  std::vector<net::OverlayDelayModel> delays;
  std::vector<d3t::trace::Trace> traces;
  core::ChangeTimelines timelines;
  std::vector<core::InterestSet> interests;
  d3t::StreamingStats pair_stats;
  double mean_hops = 0.0;
  double routing_rss_delta_mib = 0.0;

  Substrate view() const {
    Substrate sub;
    sub.delays = &delays.front();
    sub.traces = &traces;
    sub.timelines = &timelines;
    sub.interests = &interests;
    sub.pair_stats = pair_stats;
    sub.mean_hops = mean_hops;
    return sub;
  }
};

Status BuildDecomposed(const Shape& shape, uint64_t seed, Tracer* tracer,
                       DecomposedWorld* out) {
  ScopedSpan build(tracer, "exp.build");
  d3t::Rng master(seed);
  d3t::Rng topo_rng = master.Fork(1);
  d3t::Rng trace_rng = master.Fork(2);
  d3t::Rng interest_rng = master.Fork(3);

  net::TopologyGeneratorOptions topo_options;
  topo_options.router_count = shape.network.routers;
  topo_options.repository_count = shape.network.repositories;
  topo_options.source_count = shape.network.source_count;
  topo_options.link_delay_min_ms = shape.network.link_delay_min_ms;
  topo_options.link_delay_mean_ms = shape.network.link_delay_mean_ms;
  std::optional<Result<net::Topology>> topo;
  {
    ScopedSpan span(tracer, "net.topology");
    topo.emplace(net::GenerateTopology(topo_options, topo_rng));
  }
  if (!topo->ok()) return topo->status();

  {
    ScopedSpan span(tracer, "net.routing");
    const double rss_before = CurrentRssMib();
    if (shape.network.use_floyd_warshall) {
      Result<net::RoutingTables> routing =
          net::RoutingTables::FloydWarshall(**topo);
      if (!routing.ok()) return routing.status();
      Result<net::OverlayDelayModel> delays =
          net::OverlayDelayModel::FromRouting(**topo, *routing);
      if (!delays.ok()) return delays.status();
      out->delays.push_back(std::move(delays).value());
      // Measured while the routing tables are still alive.
      out->routing_rss_delta_mib = CurrentRssMib() - rss_before;
    } else {
      Result<std::vector<net::OverlayDelayModel>> delays =
          net::OverlayDelayModel::FromTopologyAllSources(**topo,
                                                         shape.build_threads);
      if (!delays.ok()) return delays.status();
      out->delays = std::move(delays).value();
      out->routing_rss_delta_mib = CurrentRssMib() - rss_before;
    }
  }
  {
    ScopedSpan span(tracer, "trace.library");
    out->traces = d3t::trace::BuildTraceLibrary(
        shape.workload.items, shape.workload.ticks, trace_rng);
  }
  {
    ScopedSpan span(tracer, "net.pair_stats");
    out->pair_stats = out->delays.front().PairDelayStats();
    out->mean_hops = out->delays.front().MeanPairHops();
  }
  {
    ScopedSpan span(tracer, "core.timelines");
    out->timelines = core::BuildChangeTimelines(out->traces);
  }
  {
    ScopedSpan span(tracer, "core.interests");
    core::InterestOptions interest_options;
    interest_options.repository_count = shape.network.repositories;
    interest_options.item_count = shape.workload.items;
    interest_options.item_probability = shape.workload.item_probability;
    interest_options.stringent_fraction = shape.workload.stringent_fraction;
    out->interests = core::GenerateInterests(interest_options, interest_rng);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Push runs

size_t EffectiveDegree(const Substrate& sub, const exp::RunSpec& spec,
                       size_t repositories) {
  size_t degree = std::max<size_t>(1, spec.overlay.coop_degree);
  if (spec.overlay.controlled_cooperation) {
    core::CoopDegreeInputs inputs;
    inputs.avg_comm_delay =
        static_cast<d3t::sim::SimTime>(sub.pair_stats.mean());
    inputs.avg_comp_delay = d3t::sim::Millis(spec.policy.comp_delay_ms);
    inputs.f = spec.overlay.coop_f;
    inputs.max_resources = repositories;
    degree = std::min(degree, core::ComputeCooperationDegree(inputs));
  }
  return degree;
}

core::LelaOptions LelaOptionsFor(const exp::RunSpec& spec, size_t degree) {
  core::LelaOptions lela;
  lela.coop_degree = degree;
  lela.p_window = spec.overlay.p_window;
  lela.preference = spec.overlay.preference;
  lela.insertion_order = spec.overlay.insertion_order;
  return lela;
}

Result<core::EngineOptions> EngineOptionsFor(const exp::RunSpec& spec) {
  core::EngineOptions options;
  options.comp_delay = d3t::sim::Millis(spec.policy.comp_delay_ms);
  options.tag_check_cost_factor = spec.policy.tag_check_cost_factor;
  options.coalesce_deliveries = spec.policy.coalesce_deliveries;
  options.drain_process_spans = spec.policy.drain_process_spans;
  Result<core::RepairPolicy> repair =
      core::ParseRepairPolicy(spec.policy.repair_policy);
  if (!repair.ok()) return repair.status();
  options.repair_policy = *repair;
  options.repair_delay = d3t::sim::Millis(spec.policy.repair_delay_ms);
  return options;
}

/// What SimulationSession::Run does for a single-source spec without
/// delay rescaling or wire routing, issued call by call under spans so
/// the traced run sees each layer. Its result must equal Run's.
Result<exp::ExperimentResult> DecomposedRun(const Substrate& sub,
                                            const exp::RunSpec& spec,
                                            size_t repositories,
                                            Tracer* tracer) {
  ScopedSpan run(tracer, "exp.run");
  exp::ExperimentResult result;
  result.mean_pair_delay_ms = sub.pair_stats.mean() / 1000.0;
  result.mean_pair_hops = sub.mean_hops;
  const size_t degree = EffectiveDegree(sub, spec, repositories);
  result.effective_degree = degree;

  d3t::Rng lela_rng = d3t::Rng(spec.seed).Fork(4);
  std::optional<Result<core::LelaResult>> built;
  {
    ScopedSpan span(tracer, "core.lela");
    built.emplace(core::BuildOverlay(*sub.delays, *sub.interests,
                                     sub.traces->size(),
                                     LelaOptionsFor(spec, degree), lela_rng));
  }
  if (!built->ok()) return built->status();
  core::Overlay& overlay = (*built)->overlay;
  {
    ScopedSpan span(tracer, "core.overlay_check");
    D3T_RETURN_IF_ERROR(overlay.Validate(degree));
    result.build_info = (*built)->info;
    result.shape = overlay.ComputeShape();
  }
  std::unique_ptr<core::Disseminator> policy;
  {
    ScopedSpan span(tracer, "core.policy");
    policy = core::MakeDisseminator(spec.policy.policy);
  }
  if (policy == nullptr) {
    return Status::InvalidArgument("unknown policy " + spec.policy.policy);
  }
  Result<core::EngineOptions> options = EngineOptionsFor(spec);
  if (!options.ok()) return options.status();
  const core::Scenario* scenario =
      spec.scenario.empty() ? nullptr : &spec.scenario;
  std::optional<Result<core::EngineMetrics>> metrics;
  {
    ScopedSpan span(tracer,
                    scenario != nullptr ? "core.churn_engine" : "core.engine");
    core::Engine engine(overlay, *sub.delays, *sub.traces, *policy, *options,
                        sub.timelines, scenario);
    metrics.emplace(engine.Run());
  }
  if (!metrics->ok()) return metrics->status();
  result.metrics = std::move(*metrics).value();
  return result;
}

// ---------------------------------------------------------------------------
// Socket feed

constexpr net::PeerId kNodePeer = 0;
constexpr net::PeerId kPublisherPeer = 1;
/// Byte ring per data channel of a served run. The engine drains each
/// push as soon as it is sent, so one frame of room suffices.
constexpr size_t kDataChannelBytes = 4 * net::wire::kMaxFrameSize;
/// A feed that moves no frame through this many waits is wedged.
constexpr int kMaxIdleWaits = 64;
constexpr int kWaitMs = 100;

struct FeedStats {
  double seconds = 0.0;
  uint64_t frames = 0;
  uint64_t stalls = 0;
  uint64_t digest = 0;
};

/// One source feed: a FeedPublisher and a serve::Node in this process,
/// joined by a loopback SocketTransport pair and driven from this
/// thread. The node's data transport is the in-memory byte-stream one,
/// with a channel per overlay connection.
class FeedSession {
 public:
  FeedSession(const std::vector<d3t::trace::Trace>& traces,
              core::Overlay& overlay, const net::OverlayDelayModel& delays,
              uint64_t seed)
      : node_ep_(2, kNodePeer),
        publisher_ep_(2, kPublisherPeer),
        data_(overlay.member_count(), kDataChannelBytes),
        node_(overlay, delays, node_ep_, data_, serve::NodeOptions{}),
        publisher_(traces, /*scenario=*/nullptr, overlay.member_count(),
                   seed, publisher_ep_, kPublisherPeer, {kNodePeer}) {}
  FeedSession(const FeedSession&) = delete;
  FeedSession& operator=(const FeedSession&) = delete;

  /// Opens publisher -> node over loopback TCP and registers a data
  /// channel per connection of `overlay`.
  Status Connect(const core::Overlay& overlay) {
    D3T_RETURN_IF_ERROR(node_ep_.Listen());
    D3T_RETURN_IF_ERROR(
        publisher_ep_.ConnectPeer(kNodePeer, node_ep_.port()));
    for (core::OverlayIndex m = 0; m < overlay.member_count(); ++m) {
      for (core::OverlayIndex child : overlay.ConnectionChildren(m)) {
        D3T_RETURN_IF_ERROR(data_.Connect(m, child));
      }
    }
    return Status::Ok();
  }

  /// Alternates Pump / PollFeed / WaitIo until the node has the whole
  /// feed, and checks that every frame sent arrived intact.
  Status Drive(Tracer* tracer, FeedStats* stats) {
    const double start = Now();
    int idle = 0;
    while (!node_.feed_complete()) {
      size_t pumped = 0;
      {
        ScopedSpan span(tracer, "serve.publish");
        pumped = publisher_.Pump();
      }
      if (!publisher_.status().ok()) return publisher_.status();
      {
        ScopedSpan span(tracer, "net.socket_pump");
        D3T_RETURN_IF_ERROR(publisher_ep_.Pump());
      }
      std::optional<Result<size_t>> polled;
      {
        ScopedSpan span(tracer, "serve.poll_feed");
        polled.emplace(node_.PollFeed());
      }
      if (!polled->ok()) return polled->status();
      if (pumped + **polled > 0) {
        idle = 0;
        continue;
      }
      ++stats->stalls;
      if (++idle > kMaxIdleWaits) {
        return Status::IoError("feed wedged at seq " +
                               std::to_string(node_.feed_next_seq()));
      }
      ScopedSpan span(tracer, "net.socket_wait");
      // A timeout is one more idle round; the wedge bound ends the loop.
      (void)node_ep_.WaitIo(kWaitMs);
    }
    stats->seconds = Now() - start;
    const net::TransportMetrics& rx = node_ep_.metrics();
    stats->frames = rx.frames_rx;
    if (rx.frames_rx != publisher_ep_.metrics().frames_tx ||
        rx.decode_errors != 0 || rx.frames_rx != node_.feed_next_seq()) {
      return Status::Internal(
          "feed lost frames: " + std::to_string(rx.frames_rx) + " of " +
          std::to_string(publisher_ep_.metrics().frames_tx) + " received, " +
          std::to_string(rx.decode_errors) + " decode errors");
    }
    Digest digest;
    digest.Add(rx.frames_rx);
    digest.Add(rx.bytes_rx);
    digest.Add(static_cast<uint64_t>(node_.feed_next_seq()));
    stats->digest = digest.value();
    return Status::Ok();
  }

  serve::Node& node() { return node_; }

 private:
  net::SocketTransport node_ep_;
  net::SocketTransport publisher_ep_;
  net::StreamTransport data_;
  serve::Node node_;
  serve::FeedPublisher publisher_;
};

// ---------------------------------------------------------------------------
// One repetition of a workload

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct RoundStats {
  double seconds = 0.0;
  /// Host seconds of each timed operation of the repetition, by label.
  std::map<std::string, double> op_seconds;
  /// Simulated events of each push-engine operation, by label.
  std::map<std::string, uint64_t> push_op_events;
  /// Socket feed sessions: frames per host second of each.
  std::vector<double> feed_rates;
  uint64_t feed_stalls = 0;
  /// Simulated counts of the direct push runs.
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t checks = 0;
  uint64_t delivery_batches = 0;
  uint64_t process_wakeups = 0;
  uint64_t source_updates = 0;
  uint64_t lela_joins = 0;
  uint64_t augmented_edges = 0;
  uint64_t pull_polls = 0;
  uint64_t pull_changed = 0;
  uint64_t repairs = 0;
  uint64_t dropped_jobs = 0;
  uint64_t scenario_ops = 0;
  /// Data transport of the served runs.
  uint64_t frames_tx = 0;
  uint64_t bytes_tx = 0;
  uint64_t decode_errors = 0;

  void AddEngine(const core::EngineMetrics& m) {
    events += m.events;
    messages += m.messages;
    checks += m.checks;
    delivery_batches += m.delivery_batches;
    process_wakeups += m.process_wakeups;
    source_updates += m.source_updates;
    repairs += m.repairs;
    dropped_jobs += m.dropped_jobs;
    scenario_ops += m.scenario_ops;
  }
  void AddFeed(const FeedStats& feed) {
    feed_rates.push_back(Ratio(static_cast<double>(feed.frames), feed.seconds));
    feed_stalls += feed.stalls;
  }
  /// Folds another repetition's counts and feeds into this one.
  void Add(const RoundStats& r) {
    feed_rates.insert(feed_rates.end(), r.feed_rates.begin(),
                      r.feed_rates.end());
    feed_stalls += r.feed_stalls;
    events += r.events;
    messages += r.messages;
    checks += r.checks;
    delivery_batches += r.delivery_batches;
    process_wakeups += r.process_wakeups;
    source_updates += r.source_updates;
    lela_joins += r.lela_joins;
    augmented_edges += r.augmented_edges;
    pull_polls += r.pull_polls;
    pull_changed += r.pull_changed;
    repairs += r.repairs;
    dropped_jobs += r.dropped_jobs;
    scenario_ops += r.scenario_ops;
    frames_tx += r.frames_tx;
    bytes_tx += r.bytes_tx;
    decode_errors += r.decode_errors;
  }
};

class Runner {
 public:
  Runner(const BenchOptions& options, Shape shape, Reference& reference,
         BenchOutcome* out)
      : options_(options),
        shape_(std::move(shape)),
        reference_(reference),
        out_(out) {}

  Status Run() {
    D3T_RETURN_IF_ERROR(Setup(options_.trace ? 1 : shape_.setup_repeats));
    const Substrate world = FromWorld(session_->world());
    D3T_RETURN_IF_ERROR(MakeSpecs(world));
    const double budget =
        options_.trace ? options_.seconds / 2.0 : options_.seconds;

    if (!options_.trace) {
      std::vector<RoundStats> rounds = Rounds(world, nullptr, budget);
      EndToEnd(rounds);
      return Status::Ok();
    }

    // Traced run: untraced repetitions first (the overhead baseline),
    // then the decomposed world and repetitions under spans.
    std::vector<RoundStats> plain = Rounds(world, nullptr, budget);
    Tracer tracer;
    tracer.set_run(kSetupRun);
    DecomposedWorld decomposed;
    D3T_RETURN_IF_ERROR(
        BuildDecomposed(shape_, options_.seed, &tracer, &decomposed));
    const Substrate traced_world = decomposed.view();
    std::vector<RoundStats> traced = Rounds(traced_world, &tracer, budget);
    tracer.set_run(kTaxRun);
    RecorderTax(traced_world, &tracer);
    PerLayer(plain, traced, tracer, decomposed);
    if (!options_.spans_out.empty()) {
      D3T_RETURN_IF_ERROR(WriteSpans(tracer));
    }
    return Status::Ok();
  }

 private:
  /// Span run ids outside the repetitions (which use 0, 1, ...).
  static constexpr uint32_t kSetupRun = 1000000;
  static constexpr uint32_t kTaxRun = 1000002;

  Status Setup(int repeats) {
    exp::SessionBuilder builder;
    builder.SetNetwork(shape_.network)
        .SetWorkload(shape_.workload)
        .SetSeed(options_.seed)
        .SetWorkerThreads(shape_.build_threads);
    for (int i = 0; i < repeats; ++i) {
      session_.reset();  // one World alive at a time
      const double start = Now();
      Result<exp::SimulationSession> built = builder.Build();
      setup_seconds_.push_back(Now() - start);
      if (!built.ok()) return built.status();
      session_.emplace(std::move(built).value());
    }
    return Status::Ok();
  }

  Status MakeSpecs(const Substrate& world) {
    exp::RunSpec base;
    base.overlay.controlled_cooperation = shape_.controlled;
    base.policy.repair_policy = "fallback";
    base.seed = options_.seed;
    for (size_t degree : shape_.degrees) {
      base.overlay.coop_degree = degree;
      if (shape_.churn_runs == 0) {
        base.label = "push.d" + std::to_string(degree);
        specs_.push_back(base);
      }
      for (size_t i = 0; i < shape_.churn_runs; ++i) {
        // ~5% of the repositories bounce once each; outages of 5-15%
        // of the horizon, repaired by the fallback policy.
        exp::ChurnOptions churn;
        churn.repositories = shape_.network.repositories;
        churn.failures = std::max<size_t>(2, shape_.network.repositories / 20);
        churn.horizon = world.traces->front().ticks().back().time;
        churn.max_outage_fraction = 0.15;
        churn.seed = exp::PerSourceSeed(options_.seed, i);
        Result<core::Scenario> scenario = exp::MakeChurnScenario(churn);
        if (!scenario.ok()) return scenario.status();
        exp::RunSpec spec = base;
        spec.scenario = std::move(scenario).value();
        spec.label = "churn" + std::to_string(i);
        specs_.push_back(std::move(spec));
      }
    }
    return Status::Ok();
  }

  /// The opening `feed_ticks` of every item of the world's source
  /// stream: what a paper_sweep or large_world repetition feeds.
  std::vector<d3t::trace::Trace> FeedPrefix(const Substrate& world) const {
    std::vector<d3t::trace::Trace> prefix;
    for (const d3t::trace::Trace& trace : *world.traces) {
      const std::vector<d3t::trace::Tick>& ticks = trace.ticks();
      const size_t keep = shape_.feed_ticks == 0
                              ? ticks.size()
                              : std::min(ticks.size(), shape_.feed_ticks);
      prefix.emplace_back(trace.name(), std::vector<d3t::trace::Tick>(
                                            ticks.begin(),
                                            ticks.begin() + keep));
    }
    return prefix;
  }

  Status Feed(const std::vector<d3t::trace::Trace>& traces,
              const net::OverlayDelayModel& delays, core::Overlay& overlay,
              Tracer* tracer, FeedStats* feed) {
    FeedSession session(traces, overlay, delays, options_.seed);
    ScopedSpan span(tracer, "serve.feed");
    D3T_RETURN_IF_ERROR(session.Connect(overlay));
    return session.Drive(tracer, feed);
  }

  std::vector<RoundStats> Rounds(const Substrate& world, Tracer* tracer,
                                 double budget) {
    std::vector<RoundStats> rounds;
    const std::vector<d3t::trace::Trace> feed =
        shape_.serve ? std::vector<d3t::trace::Trace>() : FeedPrefix(world);
    const double start = Now();
    while (rounds.size() < 2 || Now() - start < budget) {
      if (tracer != nullptr) {
        tracer->set_run(static_cast<uint32_t>(rounds.size()));
      }
      ScopedSpan span(tracer, "round");
      rounds.push_back(shape_.serve ? ServeRound(world, tracer)
                                    : SimRound(world, feed, tracer));
    }
    return rounds;
  }

  /// paper_sweep and large_world: the push runs (through
  /// SimulationSession::Run, or its decomposition when traced), the
  /// pull run, then a source feed of `feed` over loopback TCP. The
  /// feed is not one of the timed operations of run_s; it gives
  /// feed_frames_per_s samples spread over the whole run.
  RoundStats SimRound(const Substrate& world,
                      const std::vector<d3t::trace::Trace>& feed,
                      Tracer* tracer) {
    RoundStats stats;
    const double round_start = Now();
    for (const exp::RunSpec& spec : specs_) {
      const double start = Now();
      Result<exp::ExperimentResult> result =
          tracer == nullptr
              ? session_->Run(spec)
              : DecomposedRun(world, spec, shape_.network.repositories,
                              tracer);
      const double elapsed = Now() - start;
      out_->ledger.Record(spec.label, result.status(), reference_,
                          spec.label, result.ok() ? DigestOf(*result) : 0);
      if (!result.ok()) continue;
      stats.op_seconds[spec.label] = elapsed;
      stats.push_op_events[spec.label] = result->metrics.events;
      stats.AddEngine(result->metrics);
      stats.lela_joins += shape_.network.repositories;
      stats.augmented_edges += result->build_info.augmented_edges;
    }
    if (shape_.pull) {
      const double start = Now();
      std::optional<Result<core::PullMetrics>> pulled;
      {
        ScopedSpan span(tracer, "core.pull");
        core::PullEngine engine(*world.delays, *world.interests,
                                *world.traces, core::PullOptions{},
                                world.timelines);
        pulled.emplace(engine.Run());
      }
      const double elapsed = Now() - start;
      const Result<core::PullMetrics>& result = *pulled;
      out_->ledger.Record("pull", result.status(), reference_, "pull",
                          result.ok() ? DigestOf(*result) : 0);
      if (result.ok()) {
        stats.op_seconds["pull"] = elapsed;
        stats.pull_polls += result->polls;
        stats.pull_changed += result->changed_polls;
      }
    }
    core::Overlay blank(shape_.network.repositories + 1,
                        shape_.workload.items);
    FeedStats fed;
    const Status status = Feed(feed, *world.delays, blank, tracer, &fed);
    out_->ledger.Record("feed", status, reference_, "feed", fed.digest);
    if (status.ok()) stats.AddFeed(fed);
    stats.seconds = Now() - round_start;
    return stats;
  }

  /// wire_serve: feed the world to a node over loopback TCP, run the
  /// overlay directly, then serve it with every push framed over the
  /// byte-stream transport. Served and direct must agree bit for bit.
  RoundStats ServeRound(const Substrate& world, Tracer* tracer) {
    RoundStats stats;
    const double round_start = Now();
    const exp::RunSpec& spec = specs_.front();
    d3t::Rng lela_rng = d3t::Rng(spec.seed).Fork(4);
    const double lela_start = Now();
    std::optional<Result<core::LelaResult>> built;
    {
      ScopedSpan span(tracer, "core.lela");
      built.emplace(core::BuildOverlay(
          *world.delays, *world.interests, world.traces->size(),
          LelaOptionsFor(spec, spec.overlay.coop_degree), lela_rng));
    }
    const double lela_elapsed = Now() - lela_start;
    if (!built->ok()) {
      out_->ledger.Record("overlay", built->status(), reference_, "", 0);
      stats.seconds = Now() - round_start;
      return stats;
    }
    stats.op_seconds["lela"] = lela_elapsed;
    stats.lela_joins += shape_.network.repositories;
    stats.augmented_edges += (*built)->info.augmented_edges;
    core::Overlay direct_overlay = (*built)->overlay;
    core::Overlay served_overlay = (*built)->overlay;

    FeedStats feed;
    FeedSession session(*world.traces, served_overlay, *world.delays,
                        options_.seed);
    Status fed = Status::Ok();
    {
      ScopedSpan span(tracer, "serve.feed");
      fed = session.Connect(served_overlay);
      if (fed.ok()) fed = session.Drive(tracer, &feed);
    }
    out_->ledger.Record("feed", fed, reference_, "feed", feed.digest);
    if (fed.ok()) {
      stats.op_seconds["feed"] = feed.seconds;
      stats.AddFeed(feed);
    }

    {
      std::unique_ptr<core::Disseminator> policy =
          core::MakeDisseminator(spec.policy.policy);
      const double start = Now();
      std::optional<Result<core::EngineMetrics>> direct;
      {
        ScopedSpan span(tracer, "core.engine");
        core::Engine engine(direct_overlay, *world.delays, *world.traces,
                            *policy, core::EngineOptions{});
        direct.emplace(engine.Run());
      }
      const double elapsed = Now() - start;
      const Result<core::EngineMetrics>& result = *direct;
      out_->ledger.Record("direct", result.status(), reference_,
                          "wire.engine", result.ok() ? DigestOf(*result) : 0);
      if (result.ok()) {
        stats.op_seconds["direct"] = elapsed;
        stats.push_op_events["direct"] = result->events;
        stats.AddEngine(*result);
      }
    }

    if (fed.ok()) {
      const double start = Now();
      std::optional<Result<serve::NodeReport>> served;
      {
        ScopedSpan span(tracer, "serve.serve");
        served.emplace(session.node().Serve());
      }
      const double elapsed = Now() - start;
      const Result<serve::NodeReport>& report = *served;
      Status status = report.status();
      if (report.ok() && (report->data.frames_tx != report->engine.messages ||
                          report->data.decode_errors != 0)) {
        status = Status::Internal(
            "served run framed " + std::to_string(report->data.frames_tx) +
            " of " + std::to_string(report->engine.messages) +
            " pushes with " + std::to_string(report->data.decode_errors) +
            " decode errors");
      }
      out_->ledger.Record("serve", status, reference_, "wire.engine",
                          report.ok() ? DigestOf(report->engine) : 0);
      if (status.ok()) {
        stats.op_seconds["serve"] = elapsed;
        stats.push_op_events["serve"] = report->engine.events;
        stats.frames_tx += report->data.frames_tx;
        stats.bytes_tx += report->data.bytes_tx;
        stats.decode_errors += report->data.decode_errors;
      }
    }
    stats.seconds = Now() - round_start;
    return stats;
  }

  /// obs.recorder_tax: the workload's last push run, engine only,
  /// with and without a flight recorder attached, alternating which
  /// goes first. Recording must not change the result; these runs are
  /// checked against each other, outside the workload's reference, so
  /// the workload digest is the same traced or not.
  void RecorderTax(const Substrate& world, Tracer* tracer) {
    constexpr int kPairs = 5;
    Reference tax_runs;
    const exp::RunSpec& spec = specs_.back();
    const size_t degree =
        EffectiveDegree(world, spec, shape_.network.repositories);
    d3t::Rng lela_rng = d3t::Rng(spec.seed).Fork(4);
    Result<core::LelaResult> built = core::BuildOverlay(
        *world.delays, *world.interests, world.traces->size(),
        LelaOptionsFor(spec, degree), lela_rng);
    Result<core::EngineOptions> options = EngineOptionsFor(spec);
    if (!built.ok() || !options.ok()) {
      const Status failed = built.ok() ? options.status() : built.status();
      out_->ledger.Record("tax", failed, tax_runs, "engine", 0);
      return;
    }
    const core::Scenario* scenario =
        spec.scenario.empty() ? nullptr : &spec.scenario;
    std::vector<double> plain;
    std::vector<double> recorded;
    for (int i = 0; i < 2 * kPairs; ++i) {
      const bool record = (i % 2 == 0) == (i / 2 % 2 == 0);
      core::Overlay overlay = built->overlay;  // a scenario repairs it
      std::unique_ptr<core::Disseminator> policy =
          core::MakeDisseminator(spec.policy.policy);
      d3t::obs::Recorder recorder;
      core::EngineOptions engine_options = *options;
      if (record) engine_options.recorder = &recorder;
      const double start = Now();
      std::optional<Result<core::EngineMetrics>> metrics;
      {
        ScopedSpan span(tracer, record ? "obs.engine_recorded"
                                       : "obs.engine_plain");
        core::Engine engine(overlay, *world.delays, *world.traces, *policy,
                            engine_options, world.timelines, scenario);
        metrics.emplace(engine.Run());
      }
      (record ? recorded : plain).push_back(Now() - start);
      out_->ledger.Record("tax", metrics->status(), tax_runs, "engine",
                          metrics->ok() ? DigestOf(**metrics) : 0);
      if (record) recorded_events_ = recorder.recorded();
    }
    recorder_tax_ = Ratio(Median(recorded), Median(plain));
  }

  /// The end-to-end times come from the fastest run of each operation
  /// over the repetitions. Every repetition does the same simulated
  /// work, and on a shared host interference only ever adds time, so
  /// the fastest run is the steadiest estimate of an operation's cost.
  void EndToEnd(const std::vector<RoundStats>& rounds) {
    RoundStats all;
    std::map<std::string, std::vector<double>> ops;
    for (const RoundStats& r : rounds) {
      all.Add(r);
      for (const auto& [label, t] : r.op_seconds) ops[label].push_back(t);
    }
    double run = 0.0;
    double push = 0.0;
    uint64_t push_events = 0;
    for (const auto& [label, times] : ops) {
      const double fastest = *std::min_element(times.begin(), times.end());
      run += fastest;
      auto events = rounds.front().push_op_events.find(label);
      if (events != rounds.front().push_op_events.end()) {
        push += fastest;
        push_events += events->second;
      }
      char line[128];
      std::snprintf(line, sizeof(line),
                    "operation %-8s %3zu runs, fastest %.4f s, median %.4f s",
                    label.c_str(), times.size(), fastest, Median(times));
      out_->notes.push_back(line);
    }
    auto& v = out_->values;
    v["setup_s"] = Median(setup_seconds_);
    v["run_s"] = run;
    v["events_per_s"] = Ratio(static_cast<double>(push_events), push);
    v["peak_rss_mib"] = PeakRssMib();
    v["feed_frames_per_s"] =
        all.feed_rates.empty()
            ? 0.0
            : *std::max_element(all.feed_rates.begin(), all.feed_rates.end());
    out_->notes.push_back(
        "repetitions: " + std::to_string(rounds.size()) + ", world builds: " +
        std::to_string(setup_seconds_.size()) + ", feed sessions: " +
        std::to_string(all.feed_rates.size()) +
        ", simulated push events per repetition: " +
        std::to_string(push_events));
  }

  void PerLayer(const std::vector<RoundStats>& plain,
                const std::vector<RoundStats>& traced, const Tracer& tracer,
                const DecomposedWorld& decomposed) {
    const std::map<std::string, double> self = tracer.SelfSeconds();
    const std::map<std::string, double> total = tracer.TotalSeconds();
    auto get = [](const std::map<std::string, double>& m, const char* k) {
      auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    RoundStats sum;  // counts and feeds of the traced run
    std::vector<double> plain_seconds;
    std::vector<double> traced_seconds;
    for (const RoundStats& r : plain) plain_seconds.push_back(r.seconds);
    for (const RoundStats& r : traced) {
      traced_seconds.push_back(r.seconds);
      sum.Add(r);
    }
    const double n = static_cast<double>(traced.size());
    const double feeds = static_cast<double>(sum.feed_rates.size());
    auto per_round = [&](double x) { return x / n; };
    auto per_feed = [&](double x) { return Ratio(x, feeds); };
    auto count = [&](uint64_t x) { return static_cast<double>(x) / n; };

    auto& v = out_->values;
    // World building: one traced build.
    v["net.topology_s"] = get(total, "net.topology");
    v["net.routing_s"] = get(total, "net.routing");
    v["net.pair_stats_s"] = get(total, "net.pair_stats");
    v["net.routing_rss_delta_mib"] = decomposed.routing_rss_delta_mib;
    v["trace.library_s"] = get(total, "trace.library");
    v["core.timelines_s"] = get(total, "core.timelines");
    v["core.interests_s"] = get(total, "core.interests");
    // Per repetition.
    const double lela = get(total, "core.lela");
    v["core.lela_s"] = per_round(lela);
    v["core.lela_us_per_join"] =
        Ratio(lela * 1e6, static_cast<double>(sum.lela_joins));
    v["core.lela_augmented_edges"] = count(sum.augmented_edges);
    const double engine = get(total, "core.engine");
    const double churn_engine = get(total, "core.churn_engine");
    v["core.engine_s"] = per_round(engine);
    v["core.engine_ns_per_event"] =
        Ratio((engine + churn_engine) * 1e9, static_cast<double>(sum.events));
    v["core.events"] = count(sum.events);
    v["core.messages"] = count(sum.messages);
    v["core.checks"] = count(sum.checks);
    v["core.push_ratio"] = Ratio(static_cast<double>(sum.messages),
                                 static_cast<double>(sum.checks));
    v["sim.delivery_batches"] = count(sum.delivery_batches);
    v["sim.process_wakeups"] = count(sum.process_wakeups);
    v["sim.logical_per_physical"] = Ratio(
        static_cast<double>(sum.events),
        static_cast<double>(sum.source_updates + sum.delivery_batches +
                            sum.process_wakeups));
    v["core.pull_s"] = per_round(get(total, "core.pull"));
    v["core.pull_polls"] = count(sum.pull_polls);
    v["core.pull_useful_ratio"] =
        Ratio(static_cast<double>(sum.pull_changed),
              static_cast<double>(sum.pull_polls));
    v["core.repairs"] = count(sum.repairs);
    v["core.dropped_jobs"] = count(sum.dropped_jobs);
    v["core.scenario_ops"] = count(sum.scenario_ops);
    v["core.churn_engine_s"] = per_round(churn_engine);
    // Per feed session.
    v["serve.publish_s"] = per_feed(get(total, "serve.publish"));
    v["serve.poll_feed_s"] = per_feed(get(total, "serve.poll_feed"));
    v["net.socket_pump_s"] = per_feed(get(total, "net.socket_pump"));
    v["net.socket_wait_s"] = per_feed(get(total, "net.socket_wait"));
    v["net.feed_stalls"] = per_feed(static_cast<double>(sum.feed_stalls));
    // Served runs: the wire's cost is served minus direct engine time.
    const double serve_s = get(total, "serve.serve");
    const double wire_overhead = shape_.serve ? serve_s - engine : 0.0;
    v["serve.serve_s"] = per_round(serve_s);
    v["serve.wire_overhead_s"] = per_round(wire_overhead);
    v["net.update_ns_per_frame"] =
        Ratio(wire_overhead * 1e9, static_cast<double>(sum.frames_tx));
    v["net.frames_tx"] = count(sum.frames_tx);
    v["net.bytes_tx"] = count(sum.bytes_tx);
    v["net.decode_errors"] = count(sum.decode_errors);
    // Session::Run minus its LeLA and engine children.
    v["exp.run_overhead_s"] =
        per_round(get(self, "exp.run") + get(total, "core.overlay_check") +
                  get(total, "core.policy"));
    v["obs.recorder_tax"] = recorder_tax_;
    v["obs.recorded_events"] = static_cast<double>(recorded_events_);
    const double plain_run = Median(plain_seconds);
    const double traced_run = Median(traced_seconds);
    v["bench.trace_overhead_s"] = traced_run - plain_run;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "tracing overhead: traced run_s %.6f - untraced run_s "
                  "%.6f = %.6f s (%zu + %zu repetitions, %zu spans)",
                  traced_run, plain_run, traced_run - plain_run,
                  traced.size(), plain.size(), tracer.spans().size());
    out_->notes.push_back(line);
  }

  Status WriteSpans(const Tracer& tracer) {
    FILE* file = std::fopen(options_.spans_out.c_str(), "w");
    if (file == nullptr) {
      return Status::IoError("cannot write spans to " + options_.spans_out);
    }
    const std::string json = tracer.ToJson();
    const size_t written = std::fwrite(json.data(), 1, json.size(), file);
    const bool closed = std::fclose(file) == 0;
    if (written != json.size() || !closed) {
      return Status::IoError("short write to " + options_.spans_out);
    }
    out_->notes.push_back("spans: " + options_.spans_out);
    return Status::Ok();
  }

  const BenchOptions& options_;
  const Shape shape_;
  Reference& reference_;
  BenchOutcome* out_;
  std::optional<exp::SimulationSession> session_;
  std::vector<exp::RunSpec> specs_;
  std::vector<double> setup_seconds_;
  double recorder_tax_ = 0.0;
  uint64_t recorded_events_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_sweep",
                                                 "large_world", "wire_serve"};
  return names;
}

Status RunWorkload(const BenchOptions& options, Reference& reference,
                   BenchOutcome* out) {
  Result<Shape> shape = ShapeFor(options.workload, options.scale);
  if (!shape.ok()) return shape.status();
  Runner runner(options, std::move(shape).value(), reference, out);
  return runner.Run();
}

}  // namespace d3tbench
