// Reproduces Figure 5: performance WITHOUT cooperation (the source
// disseminates directly to every repository) while the mean
// communication delay is swept from 0 to 125 ms. The paper's finding:
// fidelity barely moves with communication delay because the source's
// accumulated computational delay dominates.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  bench::PrintBanner("Figure 5",
                     "no cooperation, varying communication delays", cli);

  const std::vector<double> t_values = {1.0, 0.9, 0.8, 0.7, 0.5, 0.2, 0.0};
  const std::vector<double> comm_ms = {0.0, 25.0, 50.0, 75.0, 100.0, 125.0};

  std::vector<std::string> headers = {"CommDelay(ms)"};
  for (double t : t_values) {
    headers.push_back("T=" +
                      TablePrinter::Int(static_cast<int64_t>(t * 100)));
  }
  TablePrinter table(headers);

  // One World per T; each comm-delay curve is then a single RunSweep
  // over the shared substrate.
  std::vector<std::vector<Result<exp::ExperimentResult>>> curves;
  for (double t : t_values) {
    const exp::SimulationSession session = bench::SessionForT(cli, t);
    exp::RunSpec spec = bench::SpecFromFlags(cli);
    // No cooperation: the source serves everyone directly.
    spec.overlay.coop_degree = session.world().network().repositories;
    curves.push_back(session.RunSweep(
        spec, comm_ms, [](exp::RunSpec& point, double comm) {
          // 0 means "topology native", so encode an explicit zero as -1.
          point.policy.comm_delay_mean_ms = comm == 0.0 ? -1.0 : comm;
        }));
  }

  for (size_t j = 0; j < comm_ms.size(); ++j) {
    std::vector<std::string> row = {TablePrinter::Num(comm_ms[j], 0)};
    for (size_t i = 0; i < t_values.size(); ++i) {
      exp::ExperimentResult result =
          bench::ValueOrDie(curves[i][j], "fig5 run");
      row.push_back(TablePrinter::Num(result.metrics.loss_percent, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nrows: loss of fidelity (%%) with degree = #repositories (a "
      "one-level star).\n(paper: loss stays roughly flat in the "
      "communication delay — source-side\ncomputational delay dominates, "
      "especially for stringent T.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
