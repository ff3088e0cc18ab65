// Microbenchmarks for the SimulationSession API:
//  * BM_SessionSweep vs BM_SweepRebuildBaseline — a 4-point policy sweep
//    on one shared World vs building a fresh World per point (both
//    serial, so the gap is pure substrate reuse); BM_SessionSweepPooled
//    adds the worker pool on top;
//  * BM_TimelineCachedSweep vs BM_TimelineRebuildSweep — engines bound
//    to the World-cached change timelines vs engines that rebuild them
//    with a per-run trace pass, on long mostly-flat traces where that
//    pass is visible;
//  * BM_MultiSourceSerial vs BM_MultiSourceParallel — the sharded
//    multi-source run on 1 worker thread vs the worker pool.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/disseminator.h"
#include "core/engine.h"
#include "core/lela.h"
#include "exp/multi_source.h"
#include "exp/session.h"
#include "trace/trace.h"

namespace d3t {
namespace {

const std::vector<std::string>& SweepPolicies() {
  static const std::vector<std::string> policies = {
      "distributed", "centralized", "eq3-only", "all-updates"};
  return policies;
}

constexpr uint64_t kBenchSeed = 42;

exp::NetworkConfig BenchNetwork() {
  exp::NetworkConfig network;
  network.repositories = 40;
  network.routers = 160;
  return network;
}

exp::WorkloadConfig BenchWorkload() {
  exp::WorkloadConfig workload;
  workload.items = 16;
  workload.ticks = 800;
  return workload;
}

exp::RunSpec BenchSpec() {
  exp::RunSpec spec;
  spec.overlay.coop_degree = 4;
  spec.seed = kBenchSeed;
  return spec;
}

exp::SessionBuilder BenchBuilder() {
  exp::SessionBuilder builder;
  builder.SetNetwork(BenchNetwork())
      .SetWorkload(BenchWorkload())
      .SetSeed(kBenchSeed);
  return builder;
}

/// 4-point policy sweep, one shared World (built once, outside the
/// timed region — the point of the session API). `worker_threads = 1`
/// isolates pure world reuse against the serial rebuild baseline;
/// the Pooled variant additionally fans the points across the pool.
void SweepOnSharedWorld(benchmark::State& state, size_t worker_threads) {
  Result<exp::SimulationSession> session =
      BenchBuilder().SetWorkerThreads(worker_threads).Build();
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto results = session->RunSweep(
        BenchSpec(), SweepPolicies(),
        [](exp::RunSpec& spec, const std::string& policy) {
          spec.policy.policy = policy;
        });
    for (const auto& result : results) {
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->metrics.messages);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SweepPolicies().size()));
}

void BM_SessionSweep(benchmark::State& state) {
  SweepOnSharedWorld(state, /*worker_threads=*/1);
}
BENCHMARK(BM_SessionSweep)->Unit(benchmark::kMillisecond);

void BM_SessionSweepPooled(benchmark::State& state) {
  SweepOnSharedWorld(state, /*worker_threads=*/0);  // one per hw thread
}
BENCHMARK(BM_SessionSweepPooled)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same 4 points, each on a World of its own: every point rebuilds
/// topology, routing, traces and interests from scratch.
void BM_SweepRebuildBaseline(benchmark::State& state) {
  for (auto _ : state) {
    for (const std::string& policy : SweepPolicies()) {
      exp::RunSpec spec = BenchSpec();
      spec.policy.policy = policy;
      Result<exp::SimulationSession> session = BenchBuilder().Build();
      if (!session.ok()) {
        state.SkipWithError(session.status().ToString().c_str());
        return;
      }
      Result<exp::ExperimentResult> result = session->Run(spec);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->metrics.messages);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(SweepPolicies().size()));
}
BENCHMARK(BM_SweepRebuildBaseline)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// World-cached change timelines
//
// The lazy fidelity trackers bind to per-item compacted change
// timelines. The session builds them once at SessionBuilder::Build and
// every run borrows a const view; a core::Engine handed no timelines
// rebuilds them with a full trace pass of its own. The workload below
// makes the difference visible: long, mostly-flat traces (many
// value-repeating polls, few genuine changes) make the per-run trace
// pass the dominant per-point cost.

exp::SimulationSession BuildTimelineSweepSessionOrDie() {
  constexpr size_t kItems = 8;
  constexpr size_t kTicks = 60000;
  exp::NetworkConfig network;
  network.repositories = 10;
  network.routers = 40;
  exp::WorkloadConfig workload;
  workload.items = kItems;
  workload.ticks = kTicks;
  // One tick per simulated second; the value steps only every 1500th
  // poll, so the compacted timeline is ~40 entries per 60k-tick trace.
  std::vector<trace::Trace> traces;
  traces.reserve(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    std::vector<trace::Tick> ticks;
    ticks.reserve(kTicks);
    double value = 25.0 + static_cast<double>(i);
    for (size_t k = 0; k < kTicks; ++k) {
      if (k > 0 && k % 1500 == 0) value += 0.05;
      ticks.push_back({sim::Seconds(static_cast<double>(k)), value});
    }
    traces.emplace_back("flat" + std::to_string(i), std::move(ticks));
  }
  exp::SessionBuilder builder;
  builder.SetNetwork(network)
      .SetWorkload(workload)
      .SetSeed(42)
      .SetWorkerThreads(1)
      .SetTraces(std::move(traces));
  Result<exp::SimulationSession> session = std::move(builder).Build();
  if (!session.ok()) {
    std::fprintf(stderr, "timeline sweep session build failed: %s\n",
                 session.status().ToString().c_str());
    std::abort();
  }
  return std::move(session).value();
}

/// Runs one engine per seed's overlay, bound to the World's cached
/// timelines or (use_cache = false) rebuilding them per run. The
/// overlays are built once, outside the timed region.
void TimelineSweep(benchmark::State& state, bool use_cache) {
  static exp::SimulationSession* session =
      new exp::SimulationSession(BuildTimelineSweepSessionOrDie());
  const exp::World& world = session->world();
  core::LelaOptions lela;
  lela.coop_degree = 4;
  std::vector<core::Overlay> overlays;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng = Rng(seed).Fork(4);
    Result<core::LelaResult> built =
        core::BuildOverlay(world.delays(), world.interests(),
                           world.workload().items, lela, rng);
    if (!built.ok()) {
      state.SkipWithError(built.status().ToString().c_str());
      return;
    }
    overlays.push_back(std::move(built->overlay));
  }
  const core::ChangeTimelines* timelines =
      use_cache ? &world.change_timelines() : nullptr;
  core::DistributedDisseminator policy;
  for (auto _ : state) {
    for (core::Overlay& overlay : overlays) {
      core::Engine engine(overlay, world.delays(), world.traces(), policy,
                          core::EngineOptions{}, timelines);
      Result<core::EngineMetrics> metrics = engine.Run();
      if (!metrics.ok()) {
        state.SkipWithError(metrics.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(metrics->loss_percent);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(overlays.size()));
}

void BM_TimelineCachedSweep(benchmark::State& state) {
  TimelineSweep(state, /*use_cache=*/true);
}
BENCHMARK(BM_TimelineCachedSweep)->Unit(benchmark::kMillisecond);

/// Baseline: every engine re-traces the library to rebuild its own
/// change timelines.
void BM_TimelineRebuildSweep(benchmark::State& state) {
  TimelineSweep(state, /*use_cache=*/false);
}
BENCHMARK(BM_TimelineRebuildSweep)->Unit(benchmark::kMillisecond);

void RunMultiSourceOrSkip(benchmark::State& state, size_t worker_threads) {
  exp::MultiSourceConfig config;
  config.network = BenchNetwork();
  config.network.source_count = 4;
  config.workload = BenchWorkload();
  config.run = BenchSpec();
  config.worker_threads = worker_threads;
  for (auto _ : state) {
    Result<exp::MultiSourceResult> result = exp::RunMultiSource(config);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->messages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(config.network.source_count));
}

void BM_MultiSourceSerial(benchmark::State& state) {
  RunMultiSourceOrSkip(state, /*worker_threads=*/1);
}
BENCHMARK(BM_MultiSourceSerial)->Unit(benchmark::kMillisecond);

void BM_MultiSourceParallel(benchmark::State& state) {
  RunMultiSourceOrSkip(state, /*worker_threads=*/0);  // one per hw thread
}
BENCHMARK(BM_MultiSourceParallel)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Forces a 4-thread pool even where DefaultThreadCount() == 1, so the
/// pooled code path (and its scheduling overhead) is always measured.
void BM_MultiSourcePool4(benchmark::State& state) {
  RunMultiSourceOrSkip(state, /*worker_threads=*/4);
}
BENCHMARK(BM_MultiSourcePool4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace d3t

BENCHMARK_MAIN();
