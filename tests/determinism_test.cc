// Determinism guarantees of the simulation stack: identical seed and
// configuration must produce byte-identical metrics, run after run and
// release after release. The golden values below were captured on the
// hash-map-based engine before the dense edge/tracker refactor; the
// refactor must reproduce them exactly.

#include <cstdint>
#include <cstring>
#include <string>

#include "core/pull.h"
#include "exp/multi_source.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "net/transport.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "gtest/gtest.h"

namespace d3t::exp {
namespace {

// Golden metrics captured from the seed (hash-map) engine; see
// GoldenMetricsOnFixedScenario.
constexpr uint64_t kGoldenMessages = 2349;
constexpr uint64_t kGoldenSourceMessages = 1017;
constexpr uint64_t kGoldenChecks = 9285;
constexpr uint64_t kGoldenSourceChecks = 6600;
constexpr uint64_t kGoldenSourceUpdates = 1746;
constexpr uint64_t kGoldenEvents = 11236;
constexpr uint64_t kGoldenTrackedPairs = 95;
constexpr double kGoldenLossPercent = 0.20547304454526444;
constexpr double kGoldenPairLossPercent = 0.20577034288346088;

constexpr uint64_t kGoldenSeed = 1234;

NetworkConfig GoldenNetwork() {
  NetworkConfig network;
  network.repositories = 25;
  network.routers = 100;
  return network;
}

WorkloadConfig GoldenWorkload() {
  WorkloadConfig workload;
  workload.items = 8;
  workload.ticks = 600;
  return workload;
}

Result<SimulationSession> BuildGoldenSession() {
  return SessionBuilder()
      .SetNetwork(GoldenNetwork())
      .SetWorkload(GoldenWorkload())
      .SetSeed(kGoldenSeed)
      .Build();
}

/// The golden fixture's run: degree 4, the World's seed.
RunSpec GoldenSpec(const std::string& policy = "distributed") {
  RunSpec spec;
  spec.overlay.coop_degree = 4;
  spec.policy.policy = policy;
  spec.seed = kGoldenSeed;
  return spec;
}

void ExpectIdenticalMetrics(const core::EngineMetrics& a,
                            const core::EngineMetrics& b) {
  // Exact equality on purpose: the engine is a deterministic discrete-
  // event simulation, so even the floating-point aggregates must match
  // bit for bit.
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
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<ExperimentResult> first = session->Run(GoldenSpec());
  Result<ExperimentResult> second = session->Run(GoldenSpec());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectIdenticalMetrics(first->metrics, second->metrics);
}

TEST(DeterminismTest, AllPoliciesAreRunToRunDeterministic) {
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    Result<SimulationSession> session = BuildGoldenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    Result<ExperimentResult> first = session->Run(GoldenSpec(policy));
    Result<ExperimentResult> second = session->Run(GoldenSpec(policy));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    SCOPED_TRACE(policy);
    ExpectIdenticalMetrics(first->metrics, second->metrics);
  }
}

void ExpectIdenticalMultiSourceResults(const MultiSourceResult& a,
                                       const MultiSourceResult& b) {
  // Byte-identical on purpose: the worker pool only changes *where* the
  // independent per-source engines run, never what they compute or the
  // (source-ordered) aggregation.
  EXPECT_EQ(a.loss_percent, b.loss_percent);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.max_source_checks, b.max_source_checks);
  ASSERT_EQ(a.per_source.size(), b.per_source.size());
  for (size_t s = 0; s < a.per_source.size(); ++s) {
    SCOPED_TRACE("source " + std::to_string(s));
    EXPECT_EQ(a.per_source[s].items, b.per_source[s].items);
    EXPECT_EQ(a.per_source[s].messages, b.per_source[s].messages);
    EXPECT_EQ(a.per_source[s].source_checks, b.per_source[s].source_checks);
    EXPECT_EQ(a.per_source[s].pair_loss_percent,
              b.per_source[s].pair_loss_percent);
    EXPECT_EQ(a.per_source[s].tracked_pairs, b.per_source[s].tracked_pairs);
  }
}

TEST(DeterminismTest, MultiSourceParallelIsByteIdenticalToSerial) {
  MultiSourceConfig config;
  config.network = GoldenNetwork();
  config.network.source_count = 4;
  config.workload = GoldenWorkload();
  config.run = GoldenSpec();
  config.worker_threads = 1;  // forced serial reference run
  Result<MultiSourceResult> serial = RunMultiSource(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  config.worker_threads = 4;  // sharded across the pool
  Result<MultiSourceResult> parallel = RunMultiSource(config);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalMultiSourceResults(*serial, *parallel);
  // And the pool itself is deterministic run to run.
  Result<MultiSourceResult> again = RunMultiSource(config);
  ASSERT_TRUE(again.ok());
  ExpectIdenticalMultiSourceResults(*parallel, *again);
}

TEST(DeterminismTest, BatchedDispatchIsByteIdenticalToPerMessageDispatch) {
  // The event-kernel redesign coalesces same-(node, arrival) deliveries
  // into one batched POD event. Dispatch granularity is a pure kernel
  // concern: every metric — including the logical event count — must be
  // byte-identical to the one-event-per-message baseline, for every
  // policy, on the golden fixture.
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    Result<SimulationSession> session = BuildGoldenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    RunSpec batched = GoldenSpec(policy);
    RunSpec per_message = batched;
    per_message.policy.coalesce_deliveries = false;
    Result<ExperimentResult> a = session->Run(batched);
    Result<ExperimentResult> b = session->Run(per_message);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    // Per-message dispatch fires exactly one delivery event per message
    // delivered and can never coalesce.
    EXPECT_EQ(b->metrics.coalesced_messages, 0u);
    EXPECT_EQ(a->metrics.delivery_batches + a->metrics.coalesced_messages,
              b->metrics.delivery_batches);
  }
}

TEST(DeterminismTest, SpanDrainingIsByteIdenticalToPerJobProcessing) {
  // Span-draining ProcessNext consumes a node's whole pending backlog in
  // one busy-server pass. Each drained job starts exactly when its own
  // NodeProcess event would have fired, so processing granularity is a
  // pure kernel concern: every metric — including the logical event
  // count — must be byte-identical to one-event-per-job processing, for
  // every policy, on the golden fixture. Only the physical wakeup count
  // may (and should) drop.
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    Result<SimulationSession> session = BuildGoldenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    RunSpec drained = GoldenSpec(policy);
    RunSpec per_job = drained;
    per_job.policy.drain_process_spans = false;
    Result<ExperimentResult> a = session->Run(drained);
    Result<ExperimentResult> b = session->Run(per_job);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    // Per-job processing fires exactly one NodeProcess event per job;
    // draining can only merge wakeups, never add them.
    EXPECT_LE(a->metrics.process_wakeups, b->metrics.process_wakeups);
    EXPECT_GT(a->metrics.process_wakeups, 0u);
  }
}

TEST(DeterminismTest, DispatchAndProcessingModesAreByteIdenticalInAllCombos) {
  // The two kernel toggles (delivery coalescing, span draining) must be
  // independent: all four combinations yield the same metrics.
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const RunSpec base = GoldenSpec();
  Result<ExperimentResult> reference = session->Run(base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (bool coalesce : {true, false}) {
    for (bool drain : {true, false}) {
      SCOPED_TRACE(std::string("coalesce=") + (coalesce ? "on" : "off") +
                   " drain=" + (drain ? "on" : "off"));
      RunSpec spec = base;
      spec.policy.coalesce_deliveries = coalesce;
      spec.policy.drain_process_spans = drain;
      Result<ExperimentResult> run = session->Run(spec);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectIdenticalMetrics(reference->metrics, run->metrics);
    }
  }
}

TEST(DeterminismTest, EmptyScenarioIsByteIdenticalToNoScenario) {
  // The Scenario subsystem's safety invariant: attaching an *empty*
  // scenario to a run must reproduce the scenario-free metrics byte for
  // byte, for every policy — that is what makes the dynamics API a
  // redesign of the run path rather than a fork of it. (Repair knobs
  // are inert without scenario ops; set them anyway to prove it.)
  Result<core::Scenario> empty = exp::ScenarioBuilder().Build();
  ASSERT_TRUE(empty.ok());
  for (const char* policy : {"distributed", "centralized", "eq3-only",
                             "all-updates", "temporal"}) {
    SCOPED_TRACE(policy);
    Result<SimulationSession> session = BuildGoldenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const RunSpec baseline = GoldenSpec(policy);
    RunSpec scripted = baseline;
    scripted.scenario = *empty;
    scripted.policy.repair_policy = "lela";
    scripted.policy.repair_delay_ms = 250.0;
    Result<ExperimentResult> a = session->Run(baseline);
    Result<ExperimentResult> b = session->Run(scripted);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    EXPECT_EQ(b->metrics.scenario_ops, 0u);
    EXPECT_EQ(b->metrics.repairs, 0u);
    EXPECT_EQ(b->metrics.dropped_jobs, 0u);
    EXPECT_EQ(b->metrics.outage_pair_time, 0);
  }
}

TEST(DeterminismTest, EmptyScenarioIsByteIdenticalOnPullEngine) {
  // Same invariant for the pull baseline: the scenario hook points on
  // the poll path must be invisible when the script is empty.
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  core::PullOptions options;
  core::PullEngine plain(session->world().delays(), session->world().interests(),
                         session->world().traces(), options);
  Result<core::PullMetrics> a = plain.Run();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  Result<core::Scenario> empty = exp::ScenarioBuilder().Build();
  ASSERT_TRUE(empty.ok());
  core::PullEngine scripted(session->world().delays(), session->world().interests(),
                            session->world().traces(), options, nullptr, &*empty);
  Result<core::PullMetrics> b = scripted.Run();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->loss_percent, b->loss_percent);
  EXPECT_EQ(a->per_member_loss, b->per_member_loss);
  EXPECT_EQ(a->polls, b->polls);
  EXPECT_EQ(a->wire_messages, b->wire_messages);
  EXPECT_EQ(a->changed_polls, b->changed_polls);
  EXPECT_EQ(a->source_utilization, b->source_utilization);
  EXPECT_EQ(b->scenario_ops, 0u);
  EXPECT_EQ(b->suppressed_polls, 0u);
}

TEST(DeterminismTest, KernelTogglesStayByteIdenticalUnderScenario) {
  // Dispatch coalescing and span draining are pure kernel concerns even
  // when a Scenario mutates the world mid-run: a drained span stops at
  // the next pending scenario event, so a failure landing inside a busy
  // span sees the same backlog (and drops the same jobs) in both
  // processing modes. All four combos must agree on the golden fixture
  // with a failure + recovery + renegotiation script attached.
  // Fail/recover ops only: they are valid against any generated world
  // (interest ops would need a pair the workload RNG happened to deal).
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(30), 3)
                                        .RecoverAt(sim::Seconds(200))
                                        .FailRepo(sim::Seconds(90), 11)
                                        .RecoverAt(sim::Seconds(260))
                                        .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    Result<SimulationSession> session = BuildGoldenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    RunSpec base = GoldenSpec(policy);
    base.scenario = *scenario;
    base.policy.repair_delay_ms = 750.0;
    Result<ExperimentResult> reference = session->Run(base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(reference->metrics.scenario_ops, 4u);
    for (bool coalesce : {true, false}) {
      for (bool drain : {true, false}) {
        SCOPED_TRACE(std::string("coalesce=") + (coalesce ? "on" : "off") +
                     " drain=" + (drain ? "on" : "off"));
        RunSpec spec = base;
        spec.policy.coalesce_deliveries = coalesce;
        spec.policy.drain_process_spans = drain;
        Result<ExperimentResult> run = session->Run(spec);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ExpectIdenticalMetrics(reference->metrics, run->metrics);
        EXPECT_EQ(reference->metrics.repairs, run->metrics.repairs);
        EXPECT_EQ(reference->metrics.dropped_jobs,
                  run->metrics.dropped_jobs);
        EXPECT_EQ(reference->metrics.orphaned_ticks,
                  run->metrics.orphaned_ticks);
        EXPECT_EQ(reference->metrics.outage_out_of_sync_time,
                  run->metrics.outage_out_of_sync_time);
      }
    }
  }
}

TEST(DeterminismTest, WireTransportIsByteIdenticalToDirect) {
  // The serving subsystem's headline invariant: a run whose every
  // inter-node push is serialized through the wire format over an
  // InProcTransport reproduces the direct in-process metrics byte for
  // byte — the simulator is the fake transport and the same engine
  // code serves both. Scenario-bearing on purpose: repair-path pushes
  // must cross the wire too.
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(30), 3)
                                        .RecoverAt(sim::Seconds(200))
                                        .FailRepo(sim::Seconds(90), 11)
                                        .RecoverAt(sim::Seconds(260))
                                        .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    Result<SimulationSession> session = BuildGoldenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    RunSpec direct = GoldenSpec(policy);
    direct.scenario = *scenario;
    direct.policy.repair_delay_ms = 750.0;
    RunSpec framed = direct;
    framed.policy.route_through_wire = true;
    Result<ExperimentResult> a = session->Run(direct);
    Result<ExperimentResult> b = session->Run(framed);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    EXPECT_EQ(a->metrics.scenario_ops, b->metrics.scenario_ops);
    EXPECT_EQ(a->metrics.repairs, b->metrics.repairs);
    EXPECT_EQ(a->metrics.dropped_jobs, b->metrics.dropped_jobs);
    EXPECT_EQ(a->metrics.outage_out_of_sync_time,
              b->metrics.outage_out_of_sync_time);
    // Every message crossed the wire exactly once; the direct run
    // reports all-zero transport counters.
    EXPECT_EQ(b->wire.frames_tx, b->metrics.messages);
    EXPECT_EQ(b->wire.frames_rx, b->metrics.messages);
    EXPECT_EQ(b->wire.decode_errors, 0u);
    EXPECT_GT(b->wire.bytes_tx, 0u);
    EXPECT_EQ(b->wire.bytes_tx, b->wire.bytes_rx);
    EXPECT_EQ(a->wire.frames_tx, 0u);
  }
}

TEST(DeterminismTest, WireTransportIsByteIdenticalOnPullEngine) {
  // Same invariant for the pull baseline: both inter-node legs of
  // every poll round trip (request out, response back) framed over the
  // wire must leave every metric byte-identical, under a
  // failure/recovery script.
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<core::Scenario> scenario = exp::ScenarioBuilder()
                                        .FailRepo(sim::Seconds(40), 5)
                                        .RecoverAt(sim::Seconds(220))
                                        .Build();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  core::PullOptions direct_options;
  core::PullEngine direct(session->world().delays(), session->world().interests(),
                          session->world().traces(), direct_options, nullptr,
                          &*scenario);
  Result<core::PullMetrics> a = direct.Run();
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  const size_t member_count = session->world().interests().size() + 1;
  net::InProcTransport bus(member_count, 64);
  core::PullOptions framed_options;
  framed_options.wire_transport = &bus;
  core::PullEngine framed(session->world().delays(), session->world().interests(),
                          session->world().traces(), framed_options, nullptr,
                          &*scenario);
  Result<core::PullMetrics> b = framed.Run();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a->loss_percent, b->loss_percent);
  EXPECT_EQ(a->per_member_loss, b->per_member_loss);
  EXPECT_EQ(a->polls, b->polls);
  EXPECT_EQ(a->wire_messages, b->wire_messages);
  EXPECT_EQ(a->changed_polls, b->changed_polls);
  EXPECT_EQ(a->scenario_ops, b->scenario_ops);
  EXPECT_EQ(a->suppressed_polls, b->suppressed_polls);
  EXPECT_EQ(a->outage_out_of_sync_time, b->outage_out_of_sync_time);
  EXPECT_EQ(a->source_utilization, b->source_utilization);
  // wire_messages counts serviced request + response legs. Two kinds of
  // frames ride the wire beyond those: suppressed phases (owner down at
  // arrival) and the at-most-one in-flight frame each poll loop still
  // has when the horizon ends.
  size_t poll_loops = 0;
  for (const core::InterestSet& set : session->world().interests()) {
    poll_loops += set.size();
  }
  EXPECT_GE(bus.metrics().frames_tx, b->wire_messages);
  EXPECT_LE(bus.metrics().frames_tx,
            b->wire_messages + b->suppressed_polls + poll_loops);
  EXPECT_EQ(bus.metrics().frames_rx, bus.metrics().frames_tx);
  EXPECT_EQ(bus.metrics().decode_errors, 0u);
  EXPECT_EQ(bus.metrics().backpressure_stalls, 0u);
}

TEST(DeterminismTest, RecorderAttachmentLeavesMetricsByteIdentical) {
  // The flight recorder is a pure tap: attaching it (and a metrics
  // registry) to a run must not perturb a single metric bit — for every
  // policy on the golden fixture. The registry's published counters
  // must in turn mirror the EngineMetrics they were derived from.
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    SCOPED_TRACE(policy);
    Result<SimulationSession> session = BuildGoldenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const RunSpec plain = GoldenSpec(policy);
    obs::Recorder recorder(1 << 17);
    obs::Registry registry;
    RunSpec observed = plain;
    observed.recorder = &recorder;
    observed.registry = &registry;
    Result<ExperimentResult> a = session->Run(plain);
    Result<ExperimentResult> b = session->Run(observed);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalMetrics(a->metrics, b->metrics);
    EXPECT_GT(recorder.recorded(), 0u);
    const obs::Snapshot snapshot = registry.TakeSnapshot();
    EXPECT_EQ(obs::SnapshotCounter(snapshot, "engine.messages"),
              b->metrics.messages);
    EXPECT_EQ(obs::SnapshotCounter(snapshot, "engine.checks"),
              b->metrics.checks);
    EXPECT_EQ(obs::SnapshotCounter(snapshot, "engine.events"),
              b->metrics.events);
    EXPECT_EQ(obs::SnapshotGauge(snapshot, "engine.loss_percent"),
              b->metrics.loss_percent);
  }
}

TEST(DeterminismTest, TraceDumpIsByteIdenticalAcrossReruns) {
  // The canonical trace dump is itself a determinism artifact: two runs
  // of the golden fixture must produce byte-identical dumps. The pin is
  // only meaningful if the ring never wrapped — assert that too.
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string dumps[2];
  for (std::string& dump : dumps) {
    obs::Recorder recorder(1 << 17);
    RunSpec spec = GoldenSpec();
    spec.recorder = &recorder;
    Result<ExperimentResult> run = session->Run(spec);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(recorder.dropped(), 0u) << "ring wrapped; pin is not valid";
    ASSERT_GT(recorder.recorded(), 0u);
    dump = obs::DumpTrace(recorder);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(DeterminismTest, TraceDumpIsByteIdenticalAcrossKernelToggles) {
  // Recording ORDER within one logical instant legitimately varies with
  // the kernel's batching toggles (a drained span interleaves
  // differently with same-window deliveries), but the canonical
  // (sorted) dump must not: the four coalesce/drain combinations emit
  // the same logical events at the same logical times.
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string reference;
  for (bool coalesce : {true, false}) {
    for (bool drain : {true, false}) {
      SCOPED_TRACE(std::string("coalesce=") + (coalesce ? "on" : "off") +
                   " drain=" + (drain ? "on" : "off"));
      obs::Recorder recorder(1 << 17);
      RunSpec spec = GoldenSpec();
      spec.policy.coalesce_deliveries = coalesce;
      spec.policy.drain_process_spans = drain;
      spec.recorder = &recorder;
      Result<ExperimentResult> run = session->Run(spec);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ASSERT_EQ(recorder.dropped(), 0u) << "ring wrapped; pin is not valid";
      const std::string dump = obs::DumpTrace(recorder);
      if (reference.empty()) {
        reference = dump;
      } else {
        EXPECT_EQ(reference, dump);
      }
    }
  }
}

TEST(DeterminismTest, TraceDumpIsByteIdenticalThroughTheWire) {
  // Routing every push through the framed wire transport must leave the
  // engine's canonical trace byte-identical too: the transport's own
  // frame-tx/frame-rx records land in a SEPARATE recorder here, so the
  // engine-event multiset can be compared dump for dump.
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  obs::Recorder direct_recorder(1 << 17);
  RunSpec direct = GoldenSpec();
  direct.recorder = &direct_recorder;
  obs::Recorder framed_recorder(1 << 17);
  RunSpec framed = GoldenSpec();
  framed.policy.route_through_wire = true;
  framed.recorder = &framed_recorder;
  Result<ExperimentResult> a = session->Run(direct);
  Result<ExperimentResult> b = session->Run(framed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(direct_recorder.dropped(), 0u);
  ASSERT_EQ(framed_recorder.dropped(), 0u);
  EXPECT_EQ(obs::DumpTrace(direct_recorder), obs::DumpTrace(framed_recorder));
}

TEST(DeterminismTest, GoldenMetricsOnFixedScenario) {
  // Captured from the pre-refactor (unordered_map) engine at seed 1234;
  // pins the dense-state refactor to the exact historical behavior.
  Result<SimulationSession> session = BuildGoldenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<ExperimentResult> result = session->Run(GoldenSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::EngineMetrics& m = result->metrics;
  EXPECT_EQ(m.messages, kGoldenMessages);
  EXPECT_EQ(m.source_messages, kGoldenSourceMessages);
  EXPECT_EQ(m.checks, kGoldenChecks);
  EXPECT_EQ(m.source_checks, kGoldenSourceChecks);
  EXPECT_EQ(m.source_updates, kGoldenSourceUpdates);
  EXPECT_EQ(m.events, kGoldenEvents);
  EXPECT_EQ(m.tracked_pairs, kGoldenTrackedPairs);
  EXPECT_NEAR(m.loss_percent, kGoldenLossPercent, 1e-12);
  EXPECT_NEAR(m.pair_loss_percent, kGoldenPairLossPercent, 1e-12);
}

// Streamed (Dijkstra-row) routing pin, captured before the routed-core
// pruning of OverlayDelayModel::FromTopologyAllSources: a 300-repository
// World on 1 800 routers, routed with use_floyd_warshall = false. The
// golden metrics above route with Floyd-Warshall, so without this pin no
// golden value covers the streamed builder at this scale.
// 11.313488372093111 and 35.67783218161647.
constexpr uint64_t kStreamedMeanPairHopsBits = 0x4026a0818c43a1e4ull;
constexpr uint64_t kStreamedMeanPairDelayMsBits = 0x4041d6c334761c0bull;
constexpr uint64_t kStreamedPairDigest = 0xad9b61781a35a2a3ull;

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// FNV-1a 64 over Delay (int64 microseconds) then Hops (uint32) of every
// ordered member pair, row-major.
uint64_t PairDigest(const net::OverlayDelayModel& delays) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  for (net::OverlayIndex i = 0; i < delays.member_count(); ++i) {
    for (net::OverlayIndex j = 0; j < delays.member_count(); ++j) {
      const int64_t delay = delays.Delay(i, j);
      const uint32_t hops = delays.Hops(i, j);
      mix(&delay, sizeof(delay));
      mix(&hops, sizeof(hops));
    }
  }
  return hash;
}

TEST(DeterminismTest, GoldenStreamedRoutingOnLargeWorld) {
  NetworkConfig network;
  network.repositories = 300;
  network.routers = 1800;
  network.use_floyd_warshall = false;
  WorkloadConfig workload;
  workload.items = 4;
  workload.ticks = 100;
  Result<SimulationSession> session = SessionBuilder()
                                          .SetNetwork(network)
                                          .SetWorkload(workload)
                                          .SetSeed(20021)
                                          .SetWorkerThreads(4)
                                          .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<ExperimentResult> result = session->Run(RunSpec{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DoubleBits(result->mean_pair_hops), kStreamedMeanPairHopsBits)
      << result->mean_pair_hops;
  EXPECT_EQ(DoubleBits(result->mean_pair_delay_ms),
            kStreamedMeanPairDelayMsBits)
      << result->mean_pair_delay_ms;
  EXPECT_EQ(PairDigest(session->world().delays()), kStreamedPairDigest);
}

}  // namespace
}  // namespace d3t::exp
