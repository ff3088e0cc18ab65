// Reproduces Figure 11: cost comparison of the centralized
// (source-based) and distributed (repository-based) dissemination
// algorithms — (a) checks performed at the source, (b) messages sent
// through the system. The paper: the centralized source does ~50% more
// checks, both send the same number of messages, both achieve the same
// fidelity, so the distributed approach is preferable.

#include <memory>

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli.AddFlag("degree", "5", "degree of cooperation");
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  exp::RunSpec base = bench::SpecFromFlags(cli);
  base.overlay.coop_degree = static_cast<size_t>(cli.GetInt("degree"));

  bench::PrintBanner("Figure 11",
                     "centralized vs distributed dissemination cost", cli);

  const exp::SimulationSession session = bench::SessionForT(cli, 0.5);

  TablePrinter table({"Policy", "SourceChecks", "TotalChecks", "Messages",
                      "SourceMsgs", "Loss%"});
  uint64_t source_checks[2] = {0, 0};
  uint64_t messages[2] = {0, 0};
  int idx = 0;
  for (const char* policy : {"centralized", "distributed"}) {
    exp::RunSpec spec = base;
    spec.policy.policy = policy;
    exp::ExperimentResult result =
        bench::ValueOrDie(session.Run(spec), policy);
    source_checks[idx] = result.metrics.source_checks;
    messages[idx] = result.metrics.messages;
    ++idx;
    table.AddRow({policy, TablePrinter::Int(result.metrics.source_checks),
                  TablePrinter::Int(result.metrics.checks),
                  TablePrinter::Int(result.metrics.messages),
                  TablePrinter::Int(result.metrics.source_messages),
                  TablePrinter::Num(result.metrics.loss_percent, 2)});
  }
  table.Print();

  const double check_ratio =
      source_checks[1] > 0
          ? static_cast<double>(source_checks[0]) /
                static_cast<double>(source_checks[1])
          : 0.0;
  const double msg_ratio =
      messages[1] > 0 ? static_cast<double>(messages[0]) /
                            static_cast<double>(messages[1])
                      : 0.0;
  std::printf(
      "\ncentralized/distributed source-check ratio: %.2fx  (paper: "
      "~1.5x)\ncentralized/distributed message ratio:     %.2fx  (paper: "
      "~1.0x)\n(both approaches guarantee 100%% fidelity absent delays; "
      "the distributed one\nloads the source less, so it is "
      "preferable.)\n",
      check_ratio, msg_ratio);
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
