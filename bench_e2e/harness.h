#ifndef EDR_BENCH_E2E_HARNESS_H_
#define EDR_BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace edr::bench_e2e {

/// One run of one workload, as the command line asks for it.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase. The phase also runs until at least
  /// kMinTimedOps ops have completed, so the p95 always has ten samples
  /// beyond it.
  double seconds = 10.0;
  /// false: the untraced run that yields the end-to-end metrics.
  /// true: the traced run that yields the per-layer metrics.
  bool trace = false;
  /// Multiplies the dataset and query-set sizes; 1 is the real workload.
  /// Smaller values exist for the smoke test.
  double scale = 1.0;
};

inline constexpr size_t kMinTimedOps = 200;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The end-to-end metrics (untraced run) or the per-layer metrics
  /// (traced run) — exactly the names BENCHMARK.json lists.
  std::vector<Metric> metrics;
  /// Further numbers printed by name but not gated: the k-NN / range
  /// latency split (NaN where fewer than ten samples lie beyond the
  /// percentile), fail_frac, op counts, phase times.
  std::vector<Metric> details;
  /// Empty when the run did not trace.
  SpanLog spans;
  /// "" when the span log is well formed (see SpanLog::Check).
  std::string span_error;

  bool correct() const { return failed == 0 && span_error.empty(); }
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Generates the workload's inputs from config.seed, builds the searcher,
/// warms up, runs the timed phase, and checks every answer against the
/// sequential scan. Throws std::invalid_argument for an unknown workload.
RunReport Run(const RunConfig& config);

}  // namespace edr::bench_e2e

#endif  // EDR_BENCH_E2E_HARNESS_H_
