// d3tbench: runs one benchmark workload in this process and prints its
// metrics, ending with one JSON result line.
//
//   d3tbench --workload paper_sweep|large_world|wire_serve --seed N
//            [--seconds S] [--trace 0|1] [--spans-out PATH]
//
// Exit codes: 0 when every operation was correct, 1 when some failed
// or the workload could not run, 2 on a malformed command line.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--spans-out PATH]\n"
               "  NAME: paper_sweep, large_world or wire_serve\n"
               "  N:    workload seed, an unsigned 64-bit integer\n"
               "  S:    seconds of repeated timed work, 1..3600 "
               "(default 10)\n",
               argv0);
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  d3tbench::BenchOptions options;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      Usage(argv[0]);
      return 2;
    }
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 3600) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--spans-out" && !value.empty()) {
      options.spans_out = value;
    } else {
      std::fprintf(stderr, "bad argument: %s %s\n", flag.c_str(),
                   value.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : d3tbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !have_seed || !known) {
    std::fprintf(stderr, "%s\n",
                 !have_workload ? "--workload is required"
                 : !have_seed   ? "--seed is required"
                                : "unknown workload");
    Usage(argv[0]);
    return 2;
  }

  d3tbench::Reference reference;
  d3tbench::BenchOutcome outcome;
  const d3t::Status status =
      d3tbench::RunWorkload(options, reference, &outcome);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  const d3t::Result<std::vector<d3tbench::Metric>> metrics =
      d3tbench::CollectMetrics(options.trace ? d3tbench::PerLayerMetrics()
                                             : d3tbench::EndToEndMetrics(),
                               outcome.values);
  if (!metrics.ok()) {
    std::fprintf(stderr, "%s\n", metrics.status().ToString().c_str());
    return 1;
  }

  const d3tbench::Ledger& ledger = outcome.ledger;
  std::printf("workload %s seed %llu digest %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              d3tbench::Hex(reference.Fold()).c_str());
  std::printf("fail_ratio %.6f (%llu of %llu operations failed)\n",
              ledger.fail_ratio(),
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<unsigned long long>(ledger.attempted()));
  for (const std::string& failure : ledger.failures()) {
    std::printf("  FAILED %s\n", failure.c_str());
  }
  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const d3tbench::Metric& metric : *metrics) {
    std::printf("  %-28s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", d3tbench::ResultLine(ledger, *metrics).c_str());
  return ledger.failed() == 0 ? 0 : 1;
}
