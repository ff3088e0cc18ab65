#ifndef D3T_BENCH_BENCH_UTIL_H_
#define D3T_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/cli.h"
#include "exp/session.h"

namespace d3t::bench {

/// Every figure bench supports two scales:
///  * CI scale (default): reduced repositories/items/ticks so the whole
///    bench suite completes in minutes on a laptop;
///  * --full: the paper's §6.1 base case (1 source + 100 repositories +
///    600 routers, 100 items, 10,000 ticks). Expect long runtimes.
inline void AddCommonFlags(CommandLine& cli) {
  cli.AddFlag("full", "false", "run at the paper's full scale");
  cli.AddFlag("seed", "42", "master RNG seed");
  cli.AddFlag("repositories", "0", "override repository count (0 = auto)");
  cli.AddFlag("items", "0", "override item count (0 = auto)");
  cli.AddFlag("ticks", "0", "override ticks per trace (0 = auto)");
  cli.AddFlag("help", "false", "print usage");
}

/// The network the flags describe: CI scale by default, the paper's
/// base case under --full, and --repositories overriding both (with
/// four routers per repository).
inline exp::NetworkConfig NetworkFromFlags(const CommandLine& cli) {
  exp::NetworkConfig network;
  network.repositories = cli.GetBool("full") ? 100 : 40;
  network.routers = cli.GetBool("full") ? 600 : 160;
  if (cli.GetInt("repositories") > 0) {
    network.repositories = static_cast<size_t>(cli.GetInt("repositories"));
    network.routers = network.repositories * 4;
  }
  return network;
}

/// The workload the flags describe, scaled like NetworkFromFlags.
inline exp::WorkloadConfig WorkloadFromFlags(const CommandLine& cli) {
  exp::WorkloadConfig workload;
  workload.items = cli.GetBool("full") ? 100 : 20;
  workload.ticks = cli.GetBool("full") ? 10000 : 1200;
  if (cli.GetInt("items") > 0) {
    workload.items = static_cast<size_t>(cli.GetInt("items"));
  }
  if (cli.GetInt("ticks") > 0) {
    workload.ticks = static_cast<size_t>(cli.GetInt("ticks"));
  }
  return workload;
}

inline uint64_t SeedFromFlags(const CommandLine& cli) {
  return static_cast<uint64_t>(cli.GetInt("seed"));
}

/// A builder holding the flags' network, workload and seed. Callers
/// override world fields (e.g. SetWorkload with another T) before
/// building.
inline exp::SessionBuilder BuilderFromFlags(const CommandLine& cli) {
  exp::SessionBuilder builder;
  builder.SetNetwork(NetworkFromFlags(cli))
      .SetWorkload(WorkloadFromFlags(cli))
      .SetSeed(SeedFromFlags(cli));
  return builder;
}

/// Builds the session or exits 1 naming the failure.
inline exp::SimulationSession BuildOrDie(const exp::SessionBuilder& builder) {
  Result<exp::SimulationSession> session = builder.Build();
  if (!session.ok()) {
    std::fprintf(stderr, "world build failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(session).value();
}

/// The flags' session with the stringent fraction T replaced by `t`:
/// one World per curve of a figure that sweeps T.
inline exp::SimulationSession SessionForT(const CommandLine& cli, double t) {
  exp::WorkloadConfig workload = WorkloadFromFlags(cli);
  workload.stringent_fraction = t;
  return BuildOrDie(BuilderFromFlags(cli).SetWorkload(workload));
}

/// The base run: the paper's defaults with the flags' seed, the same
/// seed that builds the World.
inline exp::RunSpec SpecFromFlags(const CommandLine& cli) {
  exp::RunSpec spec;
  spec.seed = SeedFromFlags(cli);
  return spec;
}

/// Parses flags; on --help or a parse error prints usage and exits.
inline CommandLine ParseFlagsOrDie(int argc, char** argv,
                                   CommandLine cli) {
  Status status = cli.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    std::exit(2);
  }
  if (cli.GetBool("help")) {
    std::fprintf(stdout, "%s", cli.Help(argv[0]).c_str());
    std::exit(0);
  }
  return cli;
}

/// Prints the standard bench banner tying the binary to its paper
/// artifact.
inline void PrintBanner(const std::string& artifact,
                        const std::string& what,
                        const exp::NetworkConfig& network,
                        const exp::WorkloadConfig& workload, uint64_t seed) {
  std::printf("== %s — %s ==\n", artifact.c_str(), what.c_str());
  std::printf(
      "config: %zu repositories, %zu routers, %zu items, %zu ticks, "
      "seed %llu\n\n",
      network.repositories, network.routers, workload.items, workload.ticks,
      static_cast<unsigned long long>(seed));
}

/// The banner for the world the flags describe.
inline void PrintBanner(const std::string& artifact,
                        const std::string& what, const CommandLine& cli) {
  PrintBanner(artifact, what, NetworkFromFlags(cli), WorkloadFromFlags(cli),
              SeedFromFlags(cli));
}

/// Dies with a message if an experiment failed.
inline exp::ExperimentResult ValueOrDie(Result<exp::ExperimentResult> r,
                                        const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace d3t::bench

#endif  // D3T_BENCH_BENCH_UTIL_H_
