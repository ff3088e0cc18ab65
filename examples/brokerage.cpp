// A brokerage scenario combining the full public API surface:
//   * end clients (traders and dashboards) attach to regional mirrors
//     and state per-ticker coherency requirements (paper §1.2);
//   * the mirrors' data needs are *derived* from their clients — the
//     most stringent requirement per ticker wins;
//   * two exchanges (multi-source) each feed their own listings through
//     LeLA-built dissemination graphs over the shared mirror network —
//     a two-source SimulationSession with the client-derived interests
//     plugged in via SetInterests, the per-exchange runs sharded by
//     RunAll;
//   * the same client workload is also served by direct adaptive-TTR
//     polling for comparison.
//
//   $ ./build/examples/brokerage [--trace-out=PATH]

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/clients.h"
#include "core/pull.h"
#include "exp/multi_source.h"
#include "exp/session.h"
#include "obs/export.h"
#include "obs/recorder.h"

int main(int argc, char** argv) {
  d3t::CommandLine cli;
  cli.AddFlag("trace-out", "",
              "write the merged per-exchange + pull Chrome-trace JSON here");
  if (d3t::Status status = cli.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    return 2;
  }
  const std::string trace_out = cli.GetString("trace-out");

  d3t::Rng rng(88);
  constexpr size_t kMirrors = 24;
  constexpr size_t kTickers = 10;

  // 1. Client population: each mirror serves 3-12 clients; 40% are
  // traders with cent-level tolerances.
  d3t::core::ClientWorkloadOptions client_options;
  client_options.repository_count = kMirrors;
  client_options.item_count = kTickers;
  client_options.min_clients_per_repository = 3;
  client_options.max_clients_per_repository = 12;
  client_options.stringent_fraction = 0.4;
  std::vector<d3t::core::Client> clients =
      d3t::core::GenerateClients(client_options, rng);
  std::vector<d3t::core::InterestSet> interests =
      d3t::core::DeriveInterests(clients, kMirrors);
  size_t derived_items = 0;
  for (const auto& interest : interests) derived_items += interest.size();
  std::printf(
      "brokerage: %zu clients across %zu mirrors; derived %zu "
      "(mirror, ticker) needs\n\n",
      clients.size(), kMirrors, derived_items);

  // 2. Two exchanges feeding the shared mirror network: a two-source
  // World whose generated interests are replaced by the client-derived
  // ones. Each exchange lists the tickers congruent to its index
  // (round-robin partition, handled by the session).
  d3t::exp::NetworkConfig network;
  network.routers = 100;
  network.repositories = kMirrors;
  network.source_count = 2;
  d3t::exp::WorkloadConfig workload;
  workload.items = kTickers;
  workload.ticks = 1500;
  auto session = d3t::exp::SessionBuilder()
                     .SetNetwork(network)
                     .SetWorkload(workload)
                     .SetSeed(88)
                     .SetInterests(interests)
                     .Build();
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  const d3t::exp::World& world = session->world();

  d3t::exp::RunSpec run_base;
  run_base.overlay.coop_degree = 4;
  run_base.seed = 88;
  std::vector<d3t::exp::RunSpec> specs =
      d3t::exp::MultiSourceSpecs(run_base, /*source_count=*/2);
  // RunAll executes specs concurrently, so each exchange gets its OWN
  // recorder (the obs objects are single-threaded by contract).
  std::vector<d3t::obs::Recorder> recorders(specs.size());
  if (!trace_out.empty()) {
    for (size_t s = 0; s < specs.size(); ++s) {
      specs[s].recorder = &recorders[s];
    }
  }
  auto runs = session->RunAll(specs);

  d3t::TablePrinter table(
      {"Exchange", "Tickers", "Loss%", "Messages", "SourceChecks"});
  double pair_weighted_loss = 0.0;
  uint64_t pairs = 0;
  for (size_t s = 0; s < runs.size(); ++s) {
    if (!runs[s].ok()) {
      std::fprintf(stderr, "exchange %zu: %s\n", s,
                   runs[s].status().ToString().c_str());
      return 1;
    }
    const auto& metrics = runs[s]->metrics;
    pair_weighted_loss += metrics.pair_loss_percent *
                          static_cast<double>(metrics.tracked_pairs);
    pairs += metrics.tracked_pairs;
    table.AddRow({"exchange " + std::to_string(s),
                  d3t::TablePrinter::Int(world.OwnedItemCount(s)),
                  d3t::TablePrinter::Num(metrics.loss_percent, 3),
                  d3t::TablePrinter::Int(metrics.messages),
                  d3t::TablePrinter::Int(metrics.source_checks)});
  }
  table.Print();
  const double push_loss =
      pairs > 0 ? pair_weighted_loss / static_cast<double>(pairs) : 0.0;

  // 3. The same clients served by direct adaptive polling of exchange 0
  // (pull baseline; exchange delays approximated by the first source).
  d3t::core::PullOptions pull_options;
  d3t::obs::Recorder pull_recorder;
  if (!trace_out.empty()) pull_options.recorder = &pull_recorder;
  d3t::core::PullEngine pull(world.delays(0), world.interests(),
                             world.traces(), pull_options);
  auto pull_metrics = pull.Run();
  if (!pull_metrics.ok()) {
    std::fprintf(stderr, "pull: %s\n",
                 pull_metrics.status().ToString().c_str());
    return 1;
  }
  if (!trace_out.empty()) {
    std::vector<d3t::obs::TraceStream> streams;
    for (size_t s = 0; s < recorders.size(); ++s) {
      streams.push_back({static_cast<uint32_t>(s),
                         "exchange" + std::to_string(s),
                         d3t::obs::CanonicalTrace(recorders[s])});
    }
    streams.push_back({static_cast<uint32_t>(recorders.size()), "pull",
                       d3t::obs::CanonicalTrace(pull_recorder)});
    if (d3t::Status written = d3t::obs::WriteFile(
            trace_out, d3t::obs::ChromeTraceJson(streams));
        !written.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }
  std::printf(
      "\ncooperative push: %.3f%% loss (pair-weighted)\n"
      "adaptive-TTR pull: %.3f%% loss, %llu wire messages, source "
      "utilization %.0f%%\n",
      push_loss, pull_metrics->loss_percent,
      static_cast<unsigned long long>(pull_metrics->wire_messages),
      100.0 * pull_metrics->source_utilization);
  return 0;
}
