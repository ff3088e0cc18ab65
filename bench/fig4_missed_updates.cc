// Reproduces Figure 4: the missed-updates problem. Replays the paper's
// exact value sequence through source -> P (cp=0.3) -> Q (cq=0.5) under
// zero delays and contrasts Eq. (3)-only dissemination with the
// distributed algorithm (Eq. (3) + Eq. (7) guard) and the centralized
// algorithm.

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/disseminator.h"
#include "core/engine.h"

namespace d3t {
namespace {

core::Overlay Fig4Overlay() {
  core::Overlay overlay(3, 1);
  overlay.SetServing(0, 0, 0.0, core::kInvalidOverlayIndex);
  overlay.SetOwnInterest(1, 0, 0.3);
  overlay.AddItemEdge(0, 1, 0, 0.3);
  overlay.SetOwnInterest(2, 0, 0.5);
  overlay.AddItemEdge(1, 2, 0, 0.5);
  return overlay;
}

trace::Trace Fig4Trace() {
  // The paper's sequence, then held so a missed update persists.
  std::vector<double> values = {1.0, 1.2, 1.4, 1.5, 1.7, 2.0,
                                2.0, 2.0, 2.0, 2.0};
  std::vector<trace::Tick> ticks;
  for (size_t i = 0; i < values.size(); ++i) {
    ticks.push_back({sim::Seconds(static_cast<double>(i)), values[i]});
  }
  return trace::Trace("fig4", std::move(ticks));
}

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  exp::NetworkConfig network;
  network.repositories = 2;
  network.routers = 0;
  exp::WorkloadConfig workload;
  workload.items = 1;
  workload.ticks = 10;
  bench::PrintBanner("Figure 4", "the missed-updates problem", network,
                     workload, exp::RunSpec{}.seed);

  core::Overlay overlay = Fig4Overlay();
  std::vector<trace::Trace> traces = {Fig4Trace()};
  net::OverlayDelayModel delays = net::OverlayDelayModel::Uniform(3, 0);

  // Step-by-step propagation table (zero delays => decisions only).
  TablePrinter table({"Source", "eq3: P", "eq3: Q", "dist: P", "dist: Q"});
  std::unique_ptr<core::Disseminator> eq3 =
      core::MakeDisseminator("eq3-only");
  std::unique_ptr<core::Disseminator> dist =
      core::MakeDisseminator("distributed");
  if (eq3 == nullptr || dist == nullptr) {
    std::fprintf(stderr, "policy factory returned nullptr\n");
    return 1;
  }
  eq3->Initialize(overlay, {1.0});
  dist->Initialize(overlay, {1.0});
  double eq3_p = 1.0, eq3_q = 1.0, dist_p = 1.0, dist_q = 1.0;
  const core::ItemEdge& sp = overlay.Serving(0, 0).children[0];
  const core::ItemEdge& pq = overlay.Serving(1, 0).children[0];
  for (double v : {1.2, 1.4, 1.5, 1.7, 2.0}) {
    if (eq3->ShouldPush(0, 0, 0, sp, v, 0.0)) {
      eq3_p = v;
      if (eq3->ShouldPush(0, 1, 0, pq, v, 0.0)) eq3_q = v;
    }
    if (dist->ShouldPush(0, 0, 0, sp, v, 0.0)) {
      dist_p = v;
      if (dist->ShouldPush(0, 1, 0, pq, v, 0.0)) dist_q = v;
    }
    table.AddRow({TablePrinter::Num(v, 1), TablePrinter::Num(eq3_p, 1),
                  TablePrinter::Num(eq3_q, 1), TablePrinter::Num(dist_p, 1),
                  TablePrinter::Num(dist_q, 1)});
  }
  table.Print();
  std::printf(
      "\n(paper: the 1.4 update is not required by Q's tolerance but must "
      "be pushed\nto avoid the missed-update problem — see the dist:Q "
      "column.)\n\n");

  // Fidelity under zero delays, full engine.
  TablePrinter fidelity({"Policy", "LossOfFidelity(%)", "Messages"});
  for (const char* name : {"eq3-only", "distributed", "centralized"}) {
    std::unique_ptr<core::Disseminator> policy =
        core::MakeDisseminator(name);
    if (policy == nullptr) {
      std::fprintf(stderr, "unknown dissemination policy: %s\n", name);
      return 1;
    }
    core::EngineOptions options;
    options.comp_delay = 0;
    core::Engine engine(overlay, delays, traces, *policy, options);
    Result<core::EngineMetrics> metrics = engine.Run();
    if (!metrics.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    fidelity.AddRow({name, TablePrinter::Num(metrics->loss_percent, 2),
                     TablePrinter::Int(metrics->messages)});
  }
  fidelity.Print();
  std::printf(
      "\n(paper: Eq. (3) alone cannot provide 100%% fidelity even with "
      "zero delays;\nboth proposed algorithms can.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
