// Tests of the benchmark harness itself: metric names and units, a
// tiny pass of every workload, and that a wrong reference digest is
// reported as a failure. The reference is the harness's own copy;
// libd3t is never modified.

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "workloads.h"

namespace d3tbench {
namespace {

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

BenchOptions Tiny(const std::string& workload, bool trace) {
  BenchOptions options;
  options.workload = workload;
  options.seed = 7;
  options.seconds = 0.01;  // two repetitions
  options.trace = trace;
  options.scale = Scale::kTiny;
  return options;
}

TEST(MetricsTest, NamesAreValidUniqueAndCarryUnits) {
  std::set<std::string> seen;
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    EXPECT_FALSE(defs->empty());
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(ValidMetricName(def.name)) << def.name;
      EXPECT_TRUE(ValidUnit(def.unit)) << def.name << " unit " << def.unit;
      EXPECT_TRUE(seen.insert(def.name).second) << "duplicate " << def.name;
    }
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("run s"));
  EXPECT_FALSE(ValidMetricName("events/s"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricsTest, BenchmarkJsonDeclaresExactlyTheHarnessMetrics) {
  std::ifstream file(D3TBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(file.good()) << D3TBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << file.rdbuf();
  const std::string json = text.str();
  // Each metric entry is {"name": ..., "unit": ..., ...}; workloads
  // have a name but no unit.
  const std::regex entry(
      R"re(\{\s*"name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  std::set<std::pair<std::string, std::string>> declared;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), entry);
       it != std::sregex_iterator(); ++it) {
    declared.emplace((*it)[1].str(), (*it)[2].str());
  }
  std::set<std::pair<std::string, std::string>> harness;
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *defs) harness.emplace(def.name, def.unit);
  }
  EXPECT_EQ(declared, harness);
}

TEST(MetricsTest, CollectRejectsMissingAndUndeclaredMetrics) {
  const std::vector<MetricDef> defs = {{"a", "s"}, {"b", "count"}};
  EXPECT_TRUE(CollectMetrics(defs, {{"a", 1.0}, {"b", 2.0}}).ok());
  EXPECT_FALSE(CollectMetrics(defs, {{"a", 1.0}}).ok());
  EXPECT_FALSE(
      CollectMetrics(defs, {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}}).ok());
}

TEST(WorkloadTest, TinyPassOfEveryWorkloadIsCorrect) {
  for (const std::string& workload : WorkloadNames()) {
    for (bool trace : {false, true}) {
      SCOPED_TRACE(workload + (trace ? " traced" : " untraced"));
      Reference reference;
      BenchOutcome outcome;
      const d3t::Status status =
          RunWorkload(Tiny(workload, trace), reference, &outcome);
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_GT(outcome.ledger.attempted(), 0u);
      EXPECT_EQ(outcome.ledger.failed(), 0u)
          << (outcome.ledger.failures().empty()
                  ? ""
                  : outcome.ledger.failures().front());
      EXPECT_EQ(outcome.ledger.fail_ratio(), 0.0);
      const auto metrics = CollectMetrics(
          trace ? PerLayerMetrics() : EndToEndMetrics(), outcome.values);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      if (!trace) {
        for (const Metric& metric : *metrics) {
          EXPECT_GT(metric.value, 0.0) << metric.name;
        }
      }
    }
  }
}

TEST(WorkloadTest, SameSeedGivesTheSameDigest) {
  for (const std::string& workload : WorkloadNames()) {
    Reference first;
    Reference second;
    BenchOutcome a;
    BenchOutcome b;
    ASSERT_TRUE(RunWorkload(Tiny(workload, false), first, &a).ok());
    ASSERT_TRUE(RunWorkload(Tiny(workload, true), second, &b).ok());
    // The traced decomposition reproduces Session::Run's results, so
    // the workload digest does not depend on --trace.
    EXPECT_EQ(first.slots(), second.slots()) << workload;
    EXPECT_EQ(first.Fold(), second.Fold()) << workload;
  }
}

TEST(WorkloadTest, InjectedReferenceMismatchIsReportedAsFailure) {
  for (const std::string& workload : WorkloadNames()) {
    Reference clean;
    BenchOutcome baseline;
    ASSERT_TRUE(RunWorkload(Tiny(workload, false), clean, &baseline).ok());
    ASSERT_EQ(baseline.ledger.failed(), 0u);
    for (const auto& [slot, digest] : clean.slots()) {
      SCOPED_TRACE(workload + " slot " + slot);
      Reference corrupted = clean;
      corrupted.slots()[slot] = digest ^ 1;  // one flipped bit
      BenchOutcome outcome;
      ASSERT_TRUE(RunWorkload(Tiny(workload, false), corrupted, &outcome).ok());
      EXPECT_GT(outcome.ledger.failed(), 0u);
      EXPECT_GT(outcome.ledger.fail_ratio(), 0.0);
      EXPECT_NE(ResultLine(outcome.ledger, {}).find("\"correct\": false"),
                std::string::npos);
    }
  }
}

TEST(DigestTest, EveryFieldCountsToTheLastBit) {
  d3t::core::EngineMetrics a;
  a.per_member_loss = {0.0, 1.5, 2.5};
  a.events = 10;
  const uint64_t base = DigestOf(a);
  d3t::core::EngineMetrics b = a;
  b.per_member_loss[2] = std::nextafter(2.5, 3.0);
  EXPECT_NE(DigestOf(b), base);
  b = a;
  b.per_member_loss[0] = -0.0;  // equal as a double, different bits
  EXPECT_NE(DigestOf(b), base);
  b = a;
  b.horizon = 1;
  EXPECT_NE(DigestOf(b), base);
  EXPECT_EQ(DigestOf(a), base);
}

TEST(TracerTest, SelfTimeExcludesChildSpans) {
  Tracer tracer;
  {
    ScopedSpan parent(&tracer, "parent");
    ScopedSpan child(&tracer, "child");
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  const auto self = tracer.SelfSeconds();
  const auto total = tracer.TotalSeconds();
  EXPECT_NEAR(self.at("parent") + total.at("child"), total.at("parent"),
              1e-9);
  EXPECT_EQ(self.at("child"), total.at("child"));
  ScopedSpan untraced(nullptr, "ignored");  // no tracer: a no-op
}

}  // namespace
}  // namespace d3tbench
