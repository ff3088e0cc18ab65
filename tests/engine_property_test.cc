// Property-style invariants of the dissemination engine, swept over
// policies, degrees, delays and seeds. Each property is registered only
// on the policies it holds for, so every case runs and none is skipped.

#include <initializer_list>
#include <memory>
#include <string>
#include <tuple>

#include "core/engine.h"
#include "core/lela.h"
#include "gtest/gtest.h"
#include "trace/synthetic.h"

namespace d3t::core {
namespace {

struct Sweep {
  uint64_t seed;
  size_t repos;
  size_t items;
  size_t degree;
  sim::SimTime comm;
  sim::SimTime comp;
};

const Sweep kSweeps[] = {
    {101, 12, 4, 2, sim::Millis(20), sim::Millis(5)},
    {102, 25, 6, 4, sim::Millis(40), sim::Millis(12)},
    {103, 8, 3, 1, sim::Millis(10), sim::Millis(2)},
    {104, 30, 5, 30, sim::Millis(15), sim::Millis(8)},
};

struct Built {
  Overlay overlay{1, 0};
  net::OverlayDelayModel delays = net::OverlayDelayModel::Uniform(1, 0);
  std::vector<trace::Trace> traces;
};

Built Build(const Sweep& sweep) {
  Built built;
  Rng rng(sweep.seed);
  InterestOptions workload;
  workload.repository_count = sweep.repos;
  workload.item_count = sweep.items;
  auto interests = GenerateInterests(workload, rng);
  built.delays = net::OverlayDelayModel::Uniform(sweep.repos + 1, sweep.comm);
  LelaOptions options;
  options.coop_degree = sweep.degree;
  Result<LelaResult> result =
      BuildOverlay(built.delays, interests, sweep.items, options, rng);
  EXPECT_TRUE(result.ok());
  built.overlay = std::move(result->overlay);
  for (size_t i = 0; i < sweep.items; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 250;
    trace_options.min_price = 15.0 + static_cast<double>(i);
    trace_options.max_price = 16.0 + static_cast<double>(i);
    built.traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng)).value());
  }
  return built;
}

void StructuralInvariantsHold(const Sweep& sweep, const char* policy_name) {
  Built built = Build(sweep);
  std::unique_ptr<Disseminator> policy = MakeDisseminator(policy_name);
  ASSERT_NE(policy, nullptr);
  EngineOptions options;
  options.comp_delay = sweep.comp;
  Engine engine(built.overlay, built.delays, built.traces, *policy,
                options);
  Result<EngineMetrics> result = engine.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EngineMetrics& m = *result;

  // Counting invariants.
  EXPECT_LE(m.source_messages, m.messages);
  EXPECT_LE(m.source_checks, m.checks);
  EXPECT_LE(m.messages, m.checks)
      << "every push is preceded by a charged check";
  EXPECT_GT(m.events, 0u);
  EXPECT_GT(m.horizon, 0);

  // Fidelity is a percentage and the source is always perfect.
  EXPECT_GE(m.loss_percent, 0.0);
  EXPECT_LE(m.loss_percent, 100.0);
  EXPECT_DOUBLE_EQ(m.per_member_loss[0], 0.0);
  for (double loss : m.per_member_loss) {
    if (loss >= 0.0) {
      EXPECT_LE(loss, 100.0);
    }
  }
}

void ExactPoliciesArePerfectWithoutDelays(const Sweep& sweep,
                                          const char* policy_name) {
  Sweep zero = sweep;
  zero.comm = 0;
  zero.comp = 0;
  Built built = Build(zero);
  std::unique_ptr<Disseminator> policy = MakeDisseminator(policy_name);
  EngineOptions options;
  options.comp_delay = 0;
  Engine engine(built.overlay, built.delays, built.traces, *policy,
                options);
  Result<EngineMetrics> result = engine.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->loss_percent, 0.0);
}

void MoreDelayNeverGainsFidelity(const Sweep& sweep,
                                 const char* policy_name) {
  Built slow = Build(sweep);
  Sweep fast_sweep = sweep;
  fast_sweep.comm = 0;
  Built fast = Build(fast_sweep);
  std::unique_ptr<Disseminator> p1 = MakeDisseminator(policy_name);
  std::unique_ptr<Disseminator> p2 = MakeDisseminator(policy_name);
  EngineOptions options;
  options.comp_delay = sweep.comp;
  Engine slow_engine(slow.overlay, slow.delays, slow.traces, *p1, options);
  Engine fast_engine(fast.overlay, fast.delays, fast.traces, *p2, options);
  Result<EngineMetrics> slow_result = slow_engine.Run();
  Result<EngineMetrics> fast_result = fast_engine.Run();
  ASSERT_TRUE(slow_result.ok());
  ASSERT_TRUE(fast_result.ok());
  // Allow a small tolerance: the overlay differs (preference factors see
  // different delays), so this is monotonicity in distribution, not
  // pathwise.
  EXPECT_GE(slow_result->loss_percent + 0.75, fast_result->loss_percent);
}

/// One (property, sweep, policy) case.
class EnginePropertyTest : public testing::Test {
 public:
  using Check = void (*)(const Sweep&, const char* policy_name);

  EnginePropertyTest(Check check, const Sweep& sweep, const char* policy)
      : check_(check), sweep_(sweep), policy_(policy) {}

  void TestBody() override { check_(sweep_, policy_); }

 private:
  Check check_;
  Sweep sweep_;
  const char* policy_;
};

/// Registers `check` over every sweep for each policy in `policies` only,
/// named "Sweeps/EnginePropertyTest.<property>/<policy>_s<seed>_r<repos>_
/// d<degree>" — the names a value-parameterized instantiation gives.
void RegisterProperty(const char* property, EnginePropertyTest::Check check,
                      std::initializer_list<const char*> policies) {
  for (const Sweep& sweep : kSweeps) {
    for (const char* policy : policies) {
      std::string case_name = policy;
      for (auto& ch : case_name) {
        if (ch == '-') ch = '_';
      }
      const std::string name =
          std::string(property) + "/" + case_name + "_s" +
          std::to_string(sweep.seed) + "_r" + std::to_string(sweep.repos) +
          "_d" + std::to_string(sweep.degree);
      testing::RegisterTest(
          "Sweeps/EnginePropertyTest", name.c_str(), nullptr,
          testing::PrintToString(std::make_tuple(sweep, policy)).c_str(),
          __FILE__, __LINE__,
          [=]() -> testing::Test* {
            return new EnginePropertyTest(check, sweep, policy);
          });
    }
  }
}

const bool kPropertiesRegistered = [] {
  RegisterProperty("StructuralInvariantsHold", StructuralInvariantsHold,
                   {"distributed", "centralized", "eq3-only", "all-updates",
                    "temporal"});
  // Only the exact policies guarantee 100% fidelity.
  RegisterProperty("ExactPoliciesArePerfectWithoutDelays",
                   ExactPoliciesArePerfectWithoutDelays,
                   {"distributed", "centralized"});
  // Not temporal or eq3-only: their outcomes depend on *which* updates
  // reach a node (rate-limit windows / missed-update state), so delay
  // shifts can accidentally improve their fidelity; monotonicity only
  // holds for the policies that forward every needed update.
  RegisterProperty("MoreDelayNeverGainsFidelity", MoreDelayNeverGainsFidelity,
                   {"distributed", "centralized", "all-updates"});
  return true;
}();

// ---------------------------------------------------------------------------
// Cross-policy agreement: under zero delays the distributed and
// centralized policies must deliver *equivalent coherency outcomes* on
// the same overlay, even though their message sets differ.

class PolicyAgreementTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PolicyAgreementTest, ZeroDelayOutcomesAgree) {
  Rng rng(GetParam());
  InterestOptions workload;
  workload.repository_count = 20;
  workload.item_count = 5;
  auto interests = GenerateInterests(workload, rng);
  auto delays = net::OverlayDelayModel::Uniform(21, 0);
  LelaOptions options;
  options.coop_degree = 3;
  Result<LelaResult> built =
      BuildOverlay(delays, interests, 5, options, rng);
  ASSERT_TRUE(built.ok());
  std::vector<trace::Trace> traces;
  for (int i = 0; i < 5; ++i) {
    trace::SyntheticTraceOptions trace_options;
    trace_options.tick_count = 300;
    traces.push_back(
        std::move(trace::GenerateSyntheticTrace(trace_options, rng))
            .value());
  }
  EngineOptions engine_options;
  engine_options.comp_delay = 0;
  std::vector<EngineMetrics> metrics;
  for (const char* name : {"distributed", "centralized"}) {
    std::unique_ptr<Disseminator> policy = MakeDisseminator(name);
    Engine engine(built->overlay, delays, traces, *policy, engine_options);
    Result<EngineMetrics> result = engine.Run();
    ASSERT_TRUE(result.ok());
    metrics.push_back(std::move(result).value());
  }
  EXPECT_DOUBLE_EQ(metrics[0].loss_percent, 0.0);
  EXPECT_DOUBLE_EQ(metrics[1].loss_percent, 0.0);
  // Fig. 11(b): comparable message counts.
  const double ratio = static_cast<double>(metrics[0].messages) /
                       static_cast<double>(metrics[1].messages);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyAgreementTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace d3t::core
