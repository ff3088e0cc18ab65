// Extension bench (paper §4's multi-source sketch and §8's peer-to-peer
// reading): partitioning the item universe across multiple sources,
// each rooting its own dissemination graph over the shared repository
// network. Reports fidelity and how the hottest source's load falls as
// sources are added.

#include "bench/bench_util.h"
#include "common/table.h"
#include "exp/multi_source.h"

namespace d3t {
namespace {

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(cli);
  cli = bench::ParseFlagsOrDie(argc, argv, std::move(cli));
  exp::MultiSourceConfig config;
  config.network = bench::NetworkFromFlags(cli);
  config.workload = bench::WorkloadFromFlags(cli);
  config.workload.stringent_fraction = 0.5;
  config.run = bench::SpecFromFlags(cli);
  config.run.overlay.coop_degree = 5;

  bench::PrintBanner("Extension (paper §4)",
                     "multi-source dissemination graphs", cli);

  TablePrinter table({"Sources", "Loss%", "Messages", "HottestSrcChecks"});
  for (size_t sources : {1, 2, 4, 8}) {
    config.network.source_count = sources;
    // Per-source engines are independent; shard them across the worker
    // pool (results are byte-identical to worker_threads = 1).
    config.worker_threads = 0;
    Result<exp::MultiSourceResult> result = exp::RunMultiSource(config);
    if (!result.ok()) {
      std::fprintf(stderr, "multi-source run: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    table.AddRow({TablePrinter::Int(sources),
                  TablePrinter::Num(result->loss_percent, 2),
                  TablePrinter::Int(result->messages),
                  TablePrinter::Int(result->max_source_checks)});
  }
  table.Print();
  std::printf(
      "\n(items are partitioned round-robin; each source's d3g shares the "
      "physical\nnetwork. Adding sources divides the per-source check "
      "load roughly evenly,\nthe scalability story behind the paper's "
      "multi-source extension.)\n");
  return 0;
}

}  // namespace
}  // namespace d3t

int main(int argc, char** argv) { return d3t::Main(argc, argv); }
