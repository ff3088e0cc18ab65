#ifndef D3T_EXP_MULTI_SOURCE_H_
#define D3T_EXP_MULTI_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exp/session.h"

namespace d3t::exp {

/// Multi-source deployment (paper §4: "the extension to deal with
/// multiple sources is fairly straightforward"). Data items are
/// partitioned round-robin across `network.source_count` sources; each
/// source roots an independent dissemination graph built by LeLA over
/// the same repositories, and the per-item trees of different sources
/// coexist on the shared physical network (the peer-to-peer reading of
/// §8: a repository can serve item x while being served item y).
struct MultiSourceConfig {
  /// The shared physical network; `network.source_count` sources.
  NetworkConfig network;
  WorkloadConfig workload;
  /// Template for every source's run (see MultiSourceSpecs). Its seed
  /// also seeds the World; its recorder and registry must be null.
  RunSpec run;
  /// Worker threads for the per-source engine runs (the engines are
  /// independent — one World, N shards). 0 = one per hardware thread;
  /// 1 forces the serial reference path. Results are byte-identical
  /// either way.
  size_t worker_threads = 0;
};

/// Per-source slice of the aggregate result.
struct SourceSlice {
  size_t items = 0;
  uint64_t messages = 0;
  uint64_t source_checks = 0;
  double pair_loss_percent = 0.0;
  uint64_t tracked_pairs = 0;
};

struct MultiSourceResult {
  /// Pair-weighted loss of fidelity across all sources' items.
  double loss_percent = 0.0;
  uint64_t messages = 0;
  uint64_t checks = 0;
  /// Largest per-source check count — the hottest source.
  uint64_t max_source_checks = 0;
  std::vector<SourceSlice> per_source;
};

/// Builds the RunSpecs RunMultiSource executes: one copy of `base` per
/// source, each rooted at its source with a decorrelated PerSourceSeed
/// stream. Exposed so callers can tweak specs before running them on a
/// session.
std::vector<RunSpec> MultiSourceSpecs(const RunSpec& base,
                                      size_t source_count);

/// Runs the multi-source experiment: one World with
/// `config.network.source_count` sources, one trace library, round-robin
/// item ownership, an independent LeLA overlay per source and one engine
/// run per source — sharded across the session's worker pool; metrics are
/// aggregated pair-weighted in source order (deterministic regardless of
/// scheduling).
Result<MultiSourceResult> RunMultiSource(const MultiSourceConfig& config);

}  // namespace d3t::exp

#endif  // D3T_EXP_MULTI_SOURCE_H_
