// Reproduces Figure 10: sensitivity of LeLA to the preference function.
// P1 weighs data availability, computational-delay proxy (#dependents)
// and communication delay; P2 ignores availability. The paper: once the
// degree of cooperation is controlled, the preference function has
// insignificant impact.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  bench::PrintBanner("Figure 10", "effect of the preference function", cli);

  const exp::SimulationSession session = bench::SessionForT(cli, 0.5);

  std::vector<size_t> degrees =
      cli.GetBool("full")
          ? std::vector<size_t>{1, 2, 3, 5, 8, 12, 20, 40, 70, 100}
          : std::vector<size_t>{1, 2, 4, 8, 16,
                                session.world().network().repositories};

  TablePrinter table({"Degree", "P1", "P2", "P1W", "P2W"});
  for (size_t degree : degrees) {
    std::vector<std::string> row = {TablePrinter::Int(degree)};
    for (bool controlled : {false, true}) {
      for (core::PreferenceFunction pref :
           {core::PreferenceFunction::kP1, core::PreferenceFunction::kP2}) {
        exp::RunSpec spec = bench::SpecFromFlags(cli);
        spec.overlay.coop_degree = degree;
        spec.overlay.preference = pref;
        spec.overlay.controlled_cooperation = controlled;
        exp::ExperimentResult result =
            bench::ValueOrDie(session.Run(spec), "fig10 run");
        row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\n(paper: P1 vs P2 differ little, and with controlled cooperation "
      "(P1W/P2W)\nthe variation is under ~1%%.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
