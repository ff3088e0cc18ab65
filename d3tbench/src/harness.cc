#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <set>

namespace d3tbench {

// ---------------------------------------------------------------------------
// Host clock, memory and CPUs

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMib() {
  // VmHWM belongs to this program image alone. getrusage's ru_maxrss
  // survives execve, so it would report the launching process's peak
  // (run.py's Python interpreter) when that is larger.
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMib() {
  long pages_total = 0;
  long pages_resident = 0;
  FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  const int read = std::fscanf(statm, "%ld %ld", &pages_total,
                               &pages_resident);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<size_t>(count) : 1;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// Digests

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

uint64_t DigestOf(const d3t::core::EngineMetrics& m) {
  Digest d;
  d.Add(m.loss_percent);
  d.Add(m.pair_loss_percent);
  d.Add(m.tracked_pairs);
  d.Add(static_cast<uint64_t>(m.per_member_loss.size()));
  for (double loss : m.per_member_loss) d.Add(loss);
  d.Add(m.messages);
  d.Add(m.source_messages);
  d.Add(m.checks);
  d.Add(m.source_checks);
  d.Add(m.source_updates);
  d.Add(m.events);
  d.Add(m.delivery_batches);
  d.Add(m.coalesced_messages);
  d.Add(m.process_wakeups);
  d.Add(m.scenario_ops);
  d.Add(m.repairs);
  d.Add(m.orphaned_ticks);
  d.Add(m.dropped_jobs);
  d.Add(static_cast<uint64_t>(m.outage_pair_time));
  d.Add(static_cast<uint64_t>(m.outage_out_of_sync_time));
  d.Add(m.outage_loss_percent);
  d.Add(static_cast<uint64_t>(m.horizon));
  return d.value();
}

uint64_t DigestOf(const d3t::core::PullMetrics& m) {
  Digest d;
  d.Add(m.loss_percent);
  d.Add(static_cast<uint64_t>(m.per_member_loss.size()));
  for (double loss : m.per_member_loss) d.Add(loss);
  d.Add(m.polls);
  d.Add(m.wire_messages);
  d.Add(m.changed_polls);
  d.Add(m.scenario_ops);
  d.Add(m.suppressed_polls);
  d.Add(static_cast<uint64_t>(m.outage_pair_time));
  d.Add(static_cast<uint64_t>(m.outage_out_of_sync_time));
  d.Add(m.outage_loss_percent);
  d.Add(static_cast<uint64_t>(m.horizon));
  d.Add(m.source_utilization);
  return d.value();
}

uint64_t DigestOf(const d3t::exp::ExperimentResult& r) {
  Digest d;
  d.Add(DigestOf(r.metrics));
  d.Add(static_cast<uint64_t>(r.effective_degree));
  d.Add(static_cast<uint64_t>(r.build_info.levels));
  d.Add(static_cast<uint64_t>(r.build_info.demand_edges));
  d.Add(static_cast<uint64_t>(r.build_info.augmented_edges));
  d.Add(static_cast<uint64_t>(r.build_info.multi_parent_repositories));
  d.Add(static_cast<uint64_t>(r.shape.diameter));
  d.Add(r.shape.avg_depth);
  d.Add(r.shape.avg_dependents);
  d.Add(static_cast<uint64_t>(r.shape.max_dependents));
  d.Add(r.mean_pair_delay_ms);
  d.Add(r.mean_pair_hops);
  return d.value();
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

// ---------------------------------------------------------------------------
// Reference copy and ledger

bool Reference::Match(const std::string& slot, uint64_t digest) {
  auto [it, inserted] = slots_.emplace(slot, digest);
  return inserted || it->second == digest;
}

uint64_t Reference::Fold() const {
  Digest d;
  for (const auto& [slot, digest] : slots_) {
    for (char c : slot) d.Add(static_cast<uint64_t>(c));
    d.Add(digest);
  }
  return d.value();
}

void Ledger::Record(const std::string& what, const d3t::Status& status,
                    Reference& reference, const std::string& slot,
                    uint64_t digest) {
  ++attempted_;
  if (!status.ok()) {
    Fail(what + ": " + status.ToString());
    return;
  }
  if (!reference.Match(slot, digest)) {
    Fail(what + ": digest " + Hex(digest) + " differs from the reference " +
         Hex(reference.slots()[slot]) + " of slot '" + slot + "'");
  }
}

double Ledger::fail_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

void Ledger::Fail(const std::string& message) {
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(message);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer() : origin_(Now()) {}

int64_t Tracer::NowNs() const {
  return static_cast<int64_t>((Now() - origin_) * 1e9);
}

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  const auto id = static_cast<int32_t>(spans_.size());
  open_.push_back(id);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) {
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

std::string Tracer::ToJson() const {
  std::string out = "[\n";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                  ", \"end_ns\": %" PRId64 ", \"parent\": %d, \"run\": %u}%s\n",
                  i, s.name, s.start_ns, s.end_ns, s.parent, s.run,
                  i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  out += "]\n";
  return out;
}

// ---------------------------------------------------------------------------
// Metrics

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"events_per_s", "events/s"},
      {"peak_rss_mib", "MiB"},
      {"feed_frames_per_s", "frames/s"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      // World building (per SessionBuilder::Build).
      {"net.topology_s", "s"},
      {"net.routing_s", "s"},
      {"net.pair_stats_s", "s"},
      {"net.routing_rss_delta_mib", "MiB"},
      {"trace.library_s", "s"},
      {"core.timelines_s", "s"},
      {"core.interests_s", "s"},
      // Overlay construction (per round).
      {"core.lela_s", "s"},
      {"core.lela_us_per_join", "us"},
      {"core.lela_augmented_edges", "count"},
      // Push event kernel (per round).
      {"core.engine_s", "s"},
      {"core.engine_ns_per_event", "ns"},
      {"core.events", "count"},
      {"core.messages", "count"},
      {"core.checks", "count"},
      {"core.push_ratio", "ratio"},
      {"sim.delivery_batches", "count"},
      {"sim.process_wakeups", "count"},
      {"sim.logical_per_physical", "ratio"},
      // Pull engine (per round).
      {"core.pull_s", "s"},
      {"core.pull_polls", "count"},
      {"core.pull_useful_ratio", "ratio"},
      // Churn and repair (per round).
      {"core.repairs", "count"},
      {"core.dropped_jobs", "count"},
      {"core.scenario_ops", "count"},
      {"core.churn_engine_s", "s"},
      // Socket feed (per feed session).
      {"serve.publish_s", "s"},
      {"serve.poll_feed_s", "s"},
      {"net.socket_pump_s", "s"},
      {"net.socket_wait_s", "s"},
      {"net.feed_stalls", "count"},
      // Wire serving (per round).
      {"serve.serve_s", "s"},
      {"serve.wire_overhead_s", "s"},
      {"net.update_ns_per_frame", "ns"},
      {"net.frames_tx", "count"},
      {"net.bytes_tx", "bytes"},
      {"net.decode_errors", "count"},
      // Session overhead, recorder tax, tracing overhead.
      {"exp.run_overhead_s", "s"},
      {"obs.recorder_tax", "ratio"},
      {"obs.recorded_events", "count"},
      {"bench.trace_overhead_s", "s"},
  };
  return defs;
}

d3t::Result<std::vector<Metric>> CollectMetrics(
    const std::vector<MetricDef>& defs,
    const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  std::set<std::string> declared;
  for (const MetricDef& def : defs) {
    declared.insert(def.name);
    auto it = values.find(def.name);
    if (it == values.end()) {
      return d3t::Status::Internal(std::string("metric ") + def.name +
                                   " was not measured");
    }
    out.push_back({def.name, it->second, def.unit});
  }
  for (const auto& [name, value] : values) {
    if (declared.count(name) == 0) {
      return d3t::Status::Internal("metric " + name + " is not declared");
    }
  }
  return out;
}

std::string ResultLine(const Ledger& ledger,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // %.17g round-trips every double; JSON has no NaN or infinity.
    const double v = metrics[i].value;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace d3tbench
