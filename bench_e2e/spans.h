#ifndef EDR_BENCH_E2E_SPANS_H_
#define EDR_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace edr::bench_e2e {

/// One timed interval of the traced run. Spans are recorded by the
/// benchmark around its own calls into the library's layers; the library
/// itself is not instrumented for them.
struct Span {
  /// Layer the interval belongs to ("query.engine", "pruning", ...), or
  /// "op" / "setup" / "probe" for a root.
  std::string name;
  double start = 0.0;  ///< seconds since the log's epoch
  double end = 0.0;
  int parent = -1;  ///< index into the log, -1 for a root
  /// The root's id, shared by every span under it. Ops use their index in
  /// the workload's op sequence, other roots ids from a separate range.
  uint64_t op = 0;
  /// True when the duration was read from the stats the parent call
  /// returned (SearchStats::filter_seconds / refine_seconds) instead of
  /// measured by the benchmark; such spans sit back to back from their
  /// parent's start.
  bool attributed = false;
};

/// Spans kept in memory for one run and written out when it ends.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : epoch_(Clock::now()) {}

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Appends a finished span; returns its index (for children's parent).
  int Add(const std::string& name, double start, double end, int parent,
          uint64_t op, bool attributed = false);

  const std::vector<Span>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }

  /// Self time per span name: each span's duration minus the part of it
  /// its children cover, summed by name. Only spans under roots named
  /// `root` count.
  std::map<std::string, double> SelfSeconds(const std::string& root) const;

  /// "" when the log is well formed, else the first defect: a parent that
  /// is not an earlier span, a child outside its parent's interval, an op
  /// id that differs from the parent's, or two roots sharing one op id.
  std::string Check() const;

  /// Writes the spans as one JSON array of objects.
  void WriteJson(std::FILE* out) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace edr::bench_e2e

#endif  // EDR_BENCH_E2E_SPANS_H_
