// Measurement plumbing of the d3t benchmark: host clocks and memory,
// the digest that pins simulated results, the reference copy and the
// operation ledger that turn a mismatch into a counted failure, the
// in-memory span tracer of the traced run, and the metric table.
//
// Nothing here is part of libd3t: every clock read and every span
// lives in the benchmark's own files, around calls into d3t's public
// API, so the library stays free of wall-clock reads.

#ifndef D3TBENCH_HARNESS_H_
#define D3TBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/pull.h"
#include "exp/session.h"

namespace d3tbench {

// ---------------------------------------------------------------------------
// Host clock, memory and CPUs

/// Monotonic host time in seconds.
double Now();

/// Peak resident set size of this process, in MiB.
double PeakRssMib();

/// Current resident set size of this process, in MiB.
double CurrentRssMib();

/// CPUs this process may run on (what `nproc` prints).
size_t UsableCpus();

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Digests of simulated results

/// FNV-1a over 64-bit words. Doubles enter by bit pattern, so two
/// digests agree only when every field is bit-identical.
class Digest {
 public:
  void Add(uint64_t word);
  void Add(double value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Every EngineMetrics field, per_member_loss included.
uint64_t DigestOf(const d3t::core::EngineMetrics& metrics);
/// Every PullMetrics field, per_member_loss included.
uint64_t DigestOf(const d3t::core::PullMetrics& metrics);
/// The engine metrics plus the overlay facts a Session::Run reports
/// (effective degree, LeLA build info, shape, pair delay and hops).
uint64_t DigestOf(const d3t::exp::ExperimentResult& result);

/// 16 hex digits.
std::string Hex(uint64_t value);

// ---------------------------------------------------------------------------
// Reference copy and operation ledger

/// The harness's reference copy of simulated results: one digest per
/// named slot. The first result for a slot becomes its reference; every
/// later result for the slot must match it bit for bit. Rounds of a
/// workload repeat identical work, the traced decomposition must
/// reproduce Session::Run, and a served run must reproduce the direct
/// run, so all of them share slots.
class Reference {
 public:
  /// True when `digest` equals the slot's reference (recording it when
  /// the slot is new).
  bool Match(const std::string& slot, uint64_t digest);

  /// Every slot's reference, by name. Tests edit this copy to prove a
  /// mismatch is reported.
  std::map<std::string, uint64_t>& slots() { return slots_; }

  /// One digest over all slots: the workload digest printed with the
  /// seed.
  uint64_t Fold() const;

 private:
  std::map<std::string, uint64_t> slots_;
};

/// Counts operations (one simulation run or one feed session) and the
/// ones that failed: a non-OK Status or a digest that differs from the
/// reference copy.
class Ledger {
 public:
  /// Records one operation whose result digest is `digest`, checked
  /// against `reference` slot `slot`. A non-OK `status` fails the
  /// operation without touching the reference.
  void Record(const std::string& what, const d3t::Status& status,
              Reference& reference, const std::string& slot,
              uint64_t digest);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// fail_ratio: failed / attempted (0 when nothing ran).
  double fail_ratio() const;
  /// The first few failure messages.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void Fail(const std::string& message);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Traced-run spans

/// One recorded span: a call into one layer. Times are host
/// nanoseconds since the tracer was created.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  int32_t parent = -1;
  /// Which repetition of the workload the span belongs to.
  uint32_t run = 0;
};

/// In-memory span recorder for the traced run. Single-threaded: spans
/// nest strictly, opened and closed on the benchmark's one thread.
class Tracer {
 public:
  Tracer();

  void set_run(uint32_t run) { run_ = run; }

  /// Opens a span as a child of the innermost open span.
  int32_t Begin(const char* name);
  /// Closes span `id` (the innermost open one).
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in seconds: each span's duration minus
  /// the part its child spans cover, summed over spans.
  std::map<std::string, double> SelfSeconds() const;
  /// Total duration per span name, in seconds.
  std::map<std::string, double> TotalSeconds() const;

  /// The spans as a JSON array.
  std::string ToJson() const;

 private:
  int64_t NowNs() const;

  double origin_ = 0.0;
  uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; does nothing when the tracer is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Metrics

/// A declared metric: its name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// A measured metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// True when `name` starts with a letter or digit and uses only
/// [A-Za-z0-9_.-], at most 64 characters.
bool ValidMetricName(const std::string& name);

/// The end-to-end metrics (untraced run), in report order.
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics (traced run), in report order.
const std::vector<MetricDef>& PerLayerMetrics();

/// Pairs every declared metric with its measured value. Fails when a
/// declared metric was not measured or a measured one is undeclared.
d3t::Result<std::vector<Metric>> CollectMetrics(
    const std::vector<MetricDef>& defs,
    const std::map<std::string, double>& values);

/// The benchmark's last output line: {"correct", "attempted",
/// "failed", "metrics": {name: {"value", "unit"}}}. Values keep all
/// their digits.
std::string ResultLine(const Ledger& ledger,
                       const std::vector<Metric>& metrics);

}  // namespace d3tbench

#endif  // D3TBENCH_HARNESS_H_
