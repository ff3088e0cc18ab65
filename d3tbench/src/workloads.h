// The d3t benchmark's workloads. Each one builds a World from the
// seed, runs a fixed set of simulation runs (and feed sessions) over
// it repeatedly for the time budget, checks every simulated result
// against the harness's reference copy, and reports host time and
// memory. README.md in this directory says why each workload exists
// and which metric each layer should move.

#ifndef D3TBENCH_WORKLOADS_H_
#define D3TBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace d3tbench {

/// Workload size: kFull is what the benchmark measures; kTiny runs the
/// same code paths in well under a second, for the harness's tests.
enum class Scale { kFull, kTiny };

struct BenchOptions {
  /// "paper_sweep", "large_world" or "wire_serve".
  std::string workload;
  uint64_t seed = 0;
  /// Host seconds the repeated timed phase runs for (at least two
  /// repetitions run regardless).
  double seconds = 10.0;
  /// Traced run: per-layer metrics from spans instead of the
  /// end-to-end metrics.
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Traced run: file the spans are written to ("" writes none).
  std::string spans_out;
};

struct BenchOutcome {
  Ledger ledger;
  /// Measured metric values by name (end-to-end or per-layer).
  std::map<std::string, double> values;
  /// Human-readable report lines (printed before the result line).
  std::vector<std::string> notes;
};

/// The workload names, in documentation order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. `reference` is the harness's reference copy of
/// simulated results: empty, the first results fill it; pre-filled,
/// every result must match it. Failed operations are counted in
/// `out->ledger`; a non-OK return means the workload could not run at
/// all (unknown name, world build failure, unwritable span file).
d3t::Status RunWorkload(const BenchOptions& options, Reference& reference,
                        BenchOutcome* out);

}  // namespace d3tbench

#endif  // D3TBENCH_WORKLOADS_H_
