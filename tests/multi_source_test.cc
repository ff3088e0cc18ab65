#include "exp/multi_source.h"

#include "gtest/gtest.h"
#include "net/topology_generator.h"
#include "obs/recorder.h"

namespace d3t::exp {
namespace {

/// 20 repositories on 60 routers, 8 items of 300 ticks, degree 3,
/// seed 77; `sources` sources.
MultiSourceConfig SmallConfig(size_t sources) {
  MultiSourceConfig config;
  config.network.repositories = 20;
  config.network.routers = 60;
  config.network.source_count = sources;
  config.workload.items = 8;
  config.workload.ticks = 300;
  config.run.overlay.coop_degree = 3;
  config.run.seed = 77;
  return config;
}

TEST(MultiSourceTest, GeneratorPlacesAllSources) {
  net::TopologyGeneratorOptions options;
  options.router_count = 40;
  options.repository_count = 10;
  options.source_count = 3;
  Rng rng(1);
  Result<net::Topology> topo = net::GenerateTopology(options, rng);
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo->SourceNodes().size(), 3u);
  // SourceNode() (singular) refuses ambiguity.
  EXPECT_EQ(topo->SourceNode(), net::kInvalidNode);
  EXPECT_TRUE(topo->IsConnected());
}

TEST(MultiSourceTest, SingleSourceMatchesStandardPipeline) {
  Result<MultiSourceResult> result = RunMultiSource(SmallConfig(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->messages, 0u);
  EXPECT_EQ(result->per_source.size(), 1u);
  EXPECT_EQ(result->per_source[0].items, 8u);
  EXPECT_GE(result->loss_percent, 0.0);
}

TEST(MultiSourceTest, ItemsPartitionedAcrossSources) {
  Result<MultiSourceResult> result = RunMultiSource(SmallConfig(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->per_source.size(), 3u);
  size_t items = 0;
  uint64_t pairs = 0;
  for (const SourceSlice& slice : result->per_source) {
    items += slice.items;
    pairs += slice.tracked_pairs;
  }
  EXPECT_EQ(items, 8u);
  EXPECT_GT(pairs, 0u);
}

TEST(MultiSourceTest, SpreadingSourcesSpreadsSourceLoad) {
  MultiSourceConfig single = SmallConfig(1);
  single.workload.items = 12;
  MultiSourceConfig quad = single;
  quad.network.source_count = 4;
  Result<MultiSourceResult> single_result = RunMultiSource(single);
  Result<MultiSourceResult> quad_result = RunMultiSource(quad);
  ASSERT_TRUE(single_result.ok());
  ASSERT_TRUE(quad_result.ok());
  // The hottest source in the 4-source system does well under the
  // single source's check volume.
  EXPECT_LT(quad_result->max_source_checks,
            single_result->max_source_checks);
}

TEST(MultiSourceTest, SourceStreamsAreDecorrelated) {
  // Regression test for the seed plumbing. Three layers:
  //  1. the trace library gives the items of different sources distinct
  //     value processes (a clone library would alias them);
  //  2. MultiSourceSpecs hands every source its own explicit seed;
  //  3. RunSpec::seed actually reaches the run (two runs differing only
  //     in seed build different overlays).
  NetworkConfig network;
  network.repositories = 20;
  network.routers = 60;
  network.source_count = 2;
  WorkloadConfig workload;
  workload.items = 8;
  workload.ticks = 300;
  Result<SimulationSession> session = SessionBuilder()
                                          .SetNetwork(network)
                                          .SetWorkload(workload)
                                          .SetSeed(77)
                                          .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const World& world = session->world();
  // Item 0 belongs to source 0, item 1 to source 1 (round-robin): their
  // value processes must differ.
  const auto& ticks0 = world.traces()[0].ticks();
  const auto& ticks1 = world.traces()[1].ticks();
  ASSERT_FALSE(ticks0.empty());
  ASSERT_FALSE(ticks1.empty());
  bool traces_differ = ticks0.size() != ticks1.size();
  for (size_t i = 0; !traces_differ && i < ticks0.size(); ++i) {
    traces_differ = ticks0[i].value != ticks1[i].value ||
                    ticks0[i].time != ticks1[i].time;
  }
  EXPECT_TRUE(traces_differ) << "sources' traces must not be clones";

  const RunSpec base = SmallConfig(2).run;
  std::vector<RunSpec> specs = MultiSourceSpecs(base, 2);
  EXPECT_NE(specs[0].seed, specs[1].seed);
  EXPECT_NE(specs[0].seed, base.seed);

  // The seed must reach the run: with random insertion order, LeLA's
  // shuffle is a pure function of RunSpec::seed, so two seeds differing
  // only here must yield different overlays (and identical seeds must
  // reproduce the run exactly).
  RunSpec probe;
  probe.overlay.coop_degree = 3;
  probe.overlay.insertion_order = core::InsertionOrder::kRandom;
  probe.seed = specs[0].seed;
  Result<ExperimentResult> run_a = session->Run(probe);
  Result<ExperimentResult> repeat_a = session->Run(probe);
  probe.seed = specs[1].seed;
  Result<ExperimentResult> run_b = session->Run(probe);
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();
  ASSERT_TRUE(repeat_a.ok());
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();
  EXPECT_EQ(run_a->metrics.messages, repeat_a->metrics.messages);
  EXPECT_EQ(run_a->metrics.events, repeat_a->metrics.events);
  const bool overlays_differ =
      run_a->metrics.messages != run_b->metrics.messages ||
      run_a->metrics.events != run_b->metrics.events ||
      run_a->shape.avg_depth != run_b->shape.avg_depth;
  EXPECT_TRUE(overlays_differ)
      << "RunSpec::seed did not influence the run";
}

TEST(MultiSourceTest, RejectsBadConfigs) {
  EXPECT_FALSE(RunMultiSource(SmallConfig(0)).ok());
  MultiSourceConfig config = SmallConfig(1);
  config.workload.ticks = 1;
  EXPECT_FALSE(RunMultiSource(config).ok());
  config = SmallConfig(2);
  config.run.policy.policy = "nonsense";
  EXPECT_FALSE(RunMultiSource(config).ok());
  // One single-threaded recorder cannot serve concurrent source runs.
  obs::Recorder recorder;
  config = SmallConfig(2);
  config.run.recorder = &recorder;
  EXPECT_TRUE(RunMultiSource(config).status().IsInvalidArgument());
}

TEST(MultiSourceTest, DeterministicForSeed) {
  const MultiSourceConfig config = SmallConfig(2);
  Result<MultiSourceResult> a = RunMultiSource(config);
  Result<MultiSourceResult> b = RunMultiSource(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->messages, b->messages);
  EXPECT_DOUBLE_EQ(a->loss_percent, b->loss_percent);
}

TEST(MultiSourceTest, AllPoliciesSupported) {
  for (const char* policy :
       {"distributed", "centralized", "eq3-only", "all-updates"}) {
    MultiSourceConfig config = SmallConfig(2);
    config.run.policy.policy = policy;
    EXPECT_TRUE(RunMultiSource(config).ok()) << policy;
  }
}

}  // namespace
}  // namespace d3t::exp
