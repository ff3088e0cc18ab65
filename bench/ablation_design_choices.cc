// Ablation benches for the design choices DESIGN.md calls out, beyond
// the paper's own figures:
//   1. insertion order: stringent-first (the paper's placement rule)
//      vs random insertion;
//   2. the Eq. (7) missed-update guard: distributed vs eq3-only at
//      system scale;
//   3. charging the centralized source for its tolerance-list scan
//      (tag_check_cost_factor), quantifying the source-scalability
//      concern of §5.2.

#include "bench/bench_util.h"
#include "common/table.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  exp::RunSpec base = bench::SpecFromFlags(cli);
  base.overlay.coop_degree = 5;

  bench::PrintBanner("Ablations", "design choices beyond the paper's figures",
                     cli);

  const exp::SimulationSession session = bench::SessionForT(cli, 0.5);

  // 1. Insertion order.
  std::printf("--- 1. LeLA insertion order ---\n");
  TablePrinter order_table({"Order", "Loss%", "Diameter", "AvgDepth"});
  for (auto [name, order] :
       {std::pair<const char*, core::InsertionOrder>{
            "stringent-first", core::InsertionOrder::kStringentFirst},
        {"random", core::InsertionOrder::kRandom},
        {"index", core::InsertionOrder::kIndexOrder}}) {
    exp::RunSpec spec = base;
    spec.overlay.insertion_order = order;
    exp::ExperimentResult result =
        bench::ValueOrDie(session.Run(spec), name);
    order_table.AddRow({name,
                        TablePrinter::Num(result.metrics.loss_percent, 2),
                        TablePrinter::Int(result.shape.diameter),
                        TablePrinter::Num(result.shape.avg_depth, 2)});
  }
  order_table.Print();
  std::printf(
      "(the paper requires stringent repositories near the source; "
      "stringent-first\nplacement realizes that rule.)\n\n");

  // 2. The Eq. (7) guard.
  std::printf("--- 2. Missed-update guard (Eq. 7) ---\n");
  TablePrinter guard_table({"Policy", "Loss%", "Messages"});
  for (const char* policy : {"distributed", "eq3-only"}) {
    exp::RunSpec spec = base;
    spec.policy.policy = policy;
    spec.policy.comm_delay_mean_ms = -1.0;  // zero delays isolate the guard
    spec.policy.comp_delay_ms = 0.0;
    exp::ExperimentResult result =
        bench::ValueOrDie(session.Run(spec), policy);
    guard_table.AddRow({policy,
                        TablePrinter::Num(result.metrics.loss_percent, 3),
                        TablePrinter::Int(result.metrics.messages)});
  }
  guard_table.Print();
  std::printf(
      "(zero delays: any eq3-only loss is purely missed updates; the "
      "guard's extra\nmessages are the price of 100%% fidelity.)\n\n");

  // 3. Charging the centralized tolerance scan.
  std::printf("--- 3. Centralized tag-scan cost ---\n");
  TablePrinter tag_table({"TagCostFactor", "Loss%", "SourceChecks"});
  for (double factor : {0.0, 0.25, 1.0}) {
    exp::RunSpec spec = base;
    spec.policy.policy = "centralized";
    spec.policy.tag_check_cost_factor = factor;
    exp::ExperimentResult result =
        bench::ValueOrDie(session.Run(spec), "tag cost");
    tag_table.AddRow({TablePrinter::Num(factor, 2),
                      TablePrinter::Num(result.metrics.loss_percent, 2),
                      TablePrinter::Int(result.metrics.source_checks)});
  }
  tag_table.Print();
  std::printf(
      "(charging the source for its unique-tolerance scan degrades "
      "fidelity — the\nsource-scalability drawback §5.2 predicts for the "
      "centralized approach.)\n\n");

  // 4. Value-domain vs time-domain coherency (§1.1).
  std::printf("--- 4. Value-domain vs time-domain coherency ---\n");
  TablePrinter domain_table({"Policy", "Loss% (value fidelity)",
                             "Messages"});
  for (const char* policy : {"distributed", "temporal"}) {
    exp::RunSpec spec = base;
    spec.policy.policy = policy;  // temporal: 5s period per edge
    exp::ExperimentResult result =
        bench::ValueOrDie(session.Run(spec), policy);
    domain_table.AddRow({policy,
                         TablePrinter::Num(result.metrics.loss_percent, 2),
                         TablePrinter::Int(result.metrics.messages)});
  }
  domain_table.Print();
  std::printf(
      "(time-domain coherency — push at most every 5s — is the \"simpler "
      "problem\" of\n§1.1: it bounds staleness in time but cannot bound "
      "the *value* deviation that\nthe paper's fidelity metric "
      "measures.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
