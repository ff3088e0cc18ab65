// End-to-end behavioural tests: do the paper's qualitative results
// emerge from the full pipeline (topology -> routing -> LeLA -> busy-
// server simulation -> fidelity) at reduced scale?

#include "exp/session.h"
#include "gtest/gtest.h"

namespace d3t::exp {
namespace {

constexpr uint64_t kSeed = 7;

NetworkConfig BaseNetwork() {
  NetworkConfig network;
  network.repositories = 40;
  network.routers = 160;
  return network;
}

WorkloadConfig BaseWorkload() {
  WorkloadConfig workload;
  workload.items = 8;
  workload.ticks = 600;
  workload.stringent_fraction = 1.0;  // T=100%: the regime where the
                                      // U-curve is most pronounced
  return workload;
}

RunSpec BaseSpec() {
  RunSpec spec;
  spec.seed = kSeed;
  return spec;
}

Result<SimulationSession> BuildSession(
    const NetworkConfig& network = BaseNetwork(),
    const WorkloadConfig& workload = BaseWorkload()) {
  return SessionBuilder()
      .SetNetwork(network)
      .SetWorkload(workload)
      .SetSeed(kSeed)
      .Build();
}

/// Builds a World of its own for `workload` and runs `spec` on it once.
Result<ExperimentResult> RunOnFreshWorld(const NetworkConfig& network,
                                         const WorkloadConfig& workload,
                                         const RunSpec& spec) {
  Result<SimulationSession> session = BuildSession(network, workload);
  if (!session.ok()) return session.status();
  return session->Run(spec);
}

double LossAtDegree(const SimulationSession& session, size_t degree,
                    const std::string& policy = "distributed") {
  RunSpec spec = BaseSpec();
  spec.overlay.coop_degree = degree;
  spec.policy.policy = policy;
  Result<ExperimentResult> result = session.Run(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->metrics.loss_percent : -1.0;
}

TEST(IntegrationTest, UCurveEmerges) {
  // Fig. 3: the chain (degree 1) and the star (degree = #repos) must
  // both lose more fidelity than a moderate degree.
  Result<SimulationSession> session = BuildSession();
  ASSERT_TRUE(session.ok());
  const double chain = LossAtDegree(*session, 1);
  const double moderate = LossAtDegree(*session, 4);
  const double star = LossAtDegree(*session, 40);
  EXPECT_GT(chain, moderate) << "left side of the U-curve missing";
  EXPECT_GT(star, moderate) << "right side of the U-curve missing";
}

TEST(IntegrationTest, StringencyIncreasesLoss) {
  // Fig. 3 family: larger T (more stringent data) => more loss at fixed
  // degree.
  WorkloadConfig loose = BaseWorkload();
  loose.stringent_fraction = 0.0;
  WorkloadConfig tight = BaseWorkload();
  tight.stringent_fraction = 1.0;
  RunSpec spec = BaseSpec();
  spec.overlay.coop_degree = 4;
  Result<ExperimentResult> loose_result =
      RunOnFreshWorld(BaseNetwork(), loose, spec);
  Result<ExperimentResult> tight_result =
      RunOnFreshWorld(BaseNetwork(), tight, spec);
  ASSERT_TRUE(loose_result.ok());
  ASSERT_TRUE(tight_result.ok());
  EXPECT_GE(tight_result->metrics.loss_percent,
            loose_result->metrics.loss_percent);
  // Stringent tolerances also force more messages through the overlay.
  EXPECT_GT(tight_result->metrics.messages, loose_result->metrics.messages);
}

TEST(IntegrationTest, ControlledCooperationFlattensTheRightSide) {
  // Fig. 7(a): with Eq. (2) capping the degree, offering more resources
  // beyond the computed optimum must not hurt fidelity much (L-curve,
  // not U-curve).
  Result<SimulationSession> session = BuildSession();
  ASSERT_TRUE(session.ok());
  RunSpec spec = BaseSpec();
  spec.overlay.controlled_cooperation = true;

  spec.overlay.coop_degree = 5;
  Result<ExperimentResult> at5 = session->Run(spec);
  spec.overlay.coop_degree = 40;
  Result<ExperimentResult> at40 = session->Run(spec);
  ASSERT_TRUE(at5.ok());
  ASSERT_TRUE(at40.ok());
  // Controlled cooperation caps both to the same effective degree, so
  // the runs are identical.
  EXPECT_EQ(at40->effective_degree, at5->effective_degree);
  EXPECT_NEAR(at40->metrics.loss_percent, at5->metrics.loss_percent, 1e-9);
  // And that loss is no worse than the uncontrolled star.
  const double star = LossAtDegree(*session, 40);
  EXPECT_LE(at40->metrics.loss_percent, star + 1e-9);
}

TEST(IntegrationTest, FilteringBeatsFloodingAtScale) {
  // Fig. 8 compares a system that disseminates *every* update (emulated
  // in the paper by T=100%) against one whose loose tolerances filter
  // most updates out (T=0%). Flooding must cost both messages and
  // fidelity.
  WorkloadConfig flood_workload = BaseWorkload();
  flood_workload.stringent_fraction = 1.0;
  RunSpec flood_spec = BaseSpec();
  flood_spec.policy.policy = "all-updates";
  flood_spec.overlay.coop_degree = 4;
  WorkloadConfig filtered_workload = BaseWorkload();
  filtered_workload.stringent_fraction = 0.0;
  RunSpec filtered_spec = BaseSpec();
  filtered_spec.policy.policy = "distributed";
  filtered_spec.overlay.coop_degree = 4;
  Result<ExperimentResult> flood =
      RunOnFreshWorld(BaseNetwork(), flood_workload, flood_spec);
  Result<ExperimentResult> filtered =
      RunOnFreshWorld(BaseNetwork(), filtered_workload, filtered_spec);
  ASSERT_TRUE(flood.ok());
  ASSERT_TRUE(filtered.ok());
  EXPECT_GT(flood->metrics.messages, filtered->metrics.messages);
  EXPECT_GE(flood->metrics.loss_percent, filtered->metrics.loss_percent);
  // On identical workloads, flooding also never sends fewer messages
  // than filtering.
  Result<ExperimentResult> same_workload =
      RunOnFreshWorld(BaseNetwork(), flood_workload, filtered_spec);
  ASSERT_TRUE(same_workload.ok());
  EXPECT_GE(flood->metrics.messages, same_workload->metrics.messages);
}

TEST(IntegrationTest, CentralizedAndDistributedAgreeOnFidelity) {
  // Fig. 11: same overlay, same workload — the two exact policies land
  // at comparable fidelity and message counts, but the centralized
  // source performs more checks.
  Result<SimulationSession> session = BuildSession();
  ASSERT_TRUE(session.ok());
  RunSpec spec = BaseSpec();
  spec.overlay.coop_degree = 4;
  spec.policy.policy = "distributed";
  Result<ExperimentResult> dist = session->Run(spec);
  spec.policy.policy = "centralized";
  Result<ExperimentResult> cent = session->Run(spec);
  ASSERT_TRUE(dist.ok());
  ASSERT_TRUE(cent.ok());
  EXPECT_GT(cent->metrics.source_checks, dist->metrics.source_checks);
  const double msg_ratio = static_cast<double>(dist->metrics.messages) /
                           static_cast<double>(cent->metrics.messages);
  EXPECT_GT(msg_ratio, 0.6);
  EXPECT_LT(msg_ratio, 1.7);
  EXPECT_NEAR(dist->metrics.loss_percent, cent->metrics.loss_percent, 10.0);
}

TEST(IntegrationTest, StringentRepositoriesSitCloserToTheSource) {
  // §5 design rule, measured on a realistic build: correlate each
  // repository's mean tolerance with its overlay level.
  WorkloadConfig workload = BaseWorkload();
  workload.stringent_fraction = 0.5;
  Result<SimulationSession> session = BuildSession(BaseNetwork(), workload);
  ASSERT_TRUE(session.ok());
  const World& world = session->world();
  RunSpec spec = BaseSpec();
  spec.overlay.coop_degree = 3;
  Result<ExperimentResult> result = session->Run(spec);
  ASSERT_TRUE(result.ok());
  // Proxy: the most stringent third must have mean level <= the loosest
  // third's mean level. We recompute the overlay to inspect levels.
  // (The sweep harness does not expose the overlay, so rebuild it.)
  core::LelaOptions lela;
  lela.coop_degree = 3;
  Rng rng(spec.seed + 4);
  Result<core::LelaResult> built = core::BuildOverlay(
      world.delays(), world.interests(), workload.items, lela, rng);
  ASSERT_TRUE(built.ok());
  std::vector<std::pair<double, uint32_t>> by_stringency;
  for (size_t i = 0; i < world.interests().size(); ++i) {
    if (world.interests()[i].empty()) continue;
    by_stringency.emplace_back(
        core::MeanCoherency(world.interests()[i]),
        built->overlay.level(static_cast<core::OverlayIndex>(i + 1)));
  }
  std::sort(by_stringency.begin(), by_stringency.end());
  const size_t third = by_stringency.size() / 3;
  ASSERT_GT(third, 0u);
  double stringent_mean = 0, loose_mean = 0;
  for (size_t i = 0; i < third; ++i) {
    stringent_mean += by_stringency[i].second;
    loose_mean += by_stringency[by_stringency.size() - 1 - i].second;
  }
  EXPECT_LE(stringent_mean, loose_mean);
}

TEST(IntegrationTest, ScalabilityLossGrowsSlowly) {
  // §6.3.5 at reduced scale: tripling the repositories under controlled
  // cooperation must not blow up the loss.
  NetworkConfig small = BaseNetwork();
  small.repositories = 20;
  small.routers = 80;
  NetworkConfig big = small;
  big.repositories = 60;
  big.routers = 240;
  RunSpec spec = BaseSpec();
  spec.overlay.controlled_cooperation = true;
  spec.overlay.coop_degree = 100;
  Result<ExperimentResult> small_result =
      RunOnFreshWorld(small, BaseWorkload(), spec);
  Result<ExperimentResult> big_result =
      RunOnFreshWorld(big, BaseWorkload(), spec);
  ASSERT_TRUE(small_result.ok());
  ASSERT_TRUE(big_result.ok());
  EXPECT_LT(big_result->metrics.loss_percent,
            small_result->metrics.loss_percent + 15.0);
}

}  // namespace
}  // namespace d3t::exp
