// Extension bench (paper §8 future work): cooperative push (this
// paper's distributed algorithm over a LeLA overlay) versus pull-based
// coherency with adaptive and static TTR (the mechanisms of the paper's
// refs [22] and [4]). Reports fidelity, wire messages and source load
// on identical workloads, across the coherency-stringency range.

#include <memory>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/pull.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  bench::PrintBanner("Extension (paper §8)",
                     "cooperative push vs adaptive-TTR pull", cli);

  TablePrinter table({"T%", "Mechanism", "Loss%", "WireMsgs",
                      "SourceLoad"});
  for (double t : {1.0, 0.5, 0.0}) {
    const exp::SimulationSession session = bench::SessionForT(cli, t);
    const exp::World& world = session.world();
    exp::RunSpec spec = bench::SpecFromFlags(cli);
    spec.overlay.controlled_cooperation = true;
    spec.overlay.coop_degree = world.network().repositories;

    // Cooperative push (the paper's architecture). Source load proxy:
    // the share of the horizon the source spends on dependent checks.
    exp::ExperimentResult push =
        bench::ValueOrDie(session.Run(spec), "push");
    const double push_load =
        static_cast<double>(push.metrics.source_checks) * 12.5e3 /
        static_cast<double>(push.metrics.horizon);
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(t * 100)),
                  "push (coop)",
                  TablePrinter::Num(push.metrics.loss_percent, 2),
                  TablePrinter::Int(push.metrics.messages),
                  TablePrinter::Num(push_load, 2)});

    // Pull variants on the same traces/interests/delays.
    for (bool adaptive : {true, false}) {
      core::PullOptions pull_options;
      pull_options.adaptive = adaptive;
      core::PullEngine engine(world.delays(), world.interests(),
                              world.traces(), pull_options);
      Result<core::PullMetrics> pull = engine.Run();
      if (!pull.ok()) {
        std::fprintf(stderr, "pull: %s\n",
                     pull.status().ToString().c_str());
        return 1;
      }
      table.AddRow({TablePrinter::Int(static_cast<int64_t>(t * 100)),
                    adaptive ? "pull (adaptive TTR)" : "pull (fixed TTR)",
                    TablePrinter::Num(pull->loss_percent, 2),
                    TablePrinter::Int(pull->wire_messages),
                    TablePrinter::Num(pull->source_utilization, 2)});
    }
  }
  table.Print();
  std::printf(
      "\n(push filters at each hop and shares fan-out across the overlay; "
      "pull pays a\nround trip per poll and loads the source with every "
      "request. Adaptive TTR\ncuts poll traffic and source load sharply "
      "wherever tolerances allow, at a\nmodest fidelity cost vs "
      "max-rate fixed polling — and cooperative push\ndominates both, "
      "which is the paper's architectural argument.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
