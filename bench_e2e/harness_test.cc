// Smoke test of the benchmark itself at a tiny scale: every metric that
// BENCHMARK.json names is emitted, the layers a workload drives report
// nonzero numbers, answers match the sequential scan, and the traced
// run's span log is a well-formed tree.

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "spans.h"

namespace edr::bench_e2e {
namespace {

constexpr double kTinyScale = 0.02;
constexpr double kTinySeconds = 0.4;

/// Metric names of one BENCHMARK.json section ("end_to_end" or
/// "per_layer"), in file order.
std::vector<std::string> DeclaredNames(const std::string& section) {
  std::ifstream in(EDR_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const size_t begin = all.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const size_t end = all.find(']', begin);
  const std::string body = all.substr(begin, end - begin);
  std::vector<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

std::vector<std::string> Names(const RunReport& report) {
  std::vector<std::string> names;
  for (const Metric& m : report.metrics) names.push_back(m.name);
  return names;
}

double Value(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0.0;
}

RunReport TinyRun(const std::string& workload, bool trace) {
  RunConfig config;
  config.workload = workload;
  config.seed = 3;
  config.seconds = kTinySeconds;
  config.trace = trace;
  config.scale = kTinyScale;
  return Run(config);
}

TEST(BenchE2eTest, UntracedRunEmitsEveryEndToEndMetric) {
  const std::vector<std::string> declared = DeclaredNames("end_to_end");
  ASSERT_FALSE(declared.empty());
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const RunReport report = TinyRun(workload, false);
    EXPECT_TRUE(report.correct());
    EXPECT_EQ(report.failed, 0u);
    EXPECT_GE(report.attempted, kMinTimedOps);
    EXPECT_EQ(Names(report), declared);
    for (const Metric& m : report.metrics) {
      EXPECT_GT(m.value, 0.0) << m.name;
    }
    EXPECT_TRUE(report.spans.empty());
  }
}

TEST(BenchE2eTest, TracedRunEmitsEveryPerLayerMetricWhereItApplies) {
  const std::vector<std::string> declared = DeclaredNames("per_layer");
  ASSERT_FALSE(declared.empty());
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const RunReport report = TinyRun(workload, true);
    EXPECT_TRUE(report.correct()) << report.span_error;
    EXPECT_EQ(Names(report), declared);

    // Layers on every workload's path.
    for (const char* name :
         {"setup.matrix_s", "setup.histogram_s", "setup.qgram_s",
          "pruning.sweep_ms_per_op", "pruning.power", "distance.dp_per_op",
          "distance.cells_per_op", "distance.refine_yield",
          "distance.kernel_gcells_s", "pool.busy_frac", "pool.jobs_per_op",
          "sched.queue_wait_ms_p50", "self_ms_per_op.op"}) {
      EXPECT_GT(Value(report, name), 0.0) << name;
    }
    const bool stream = workload == "short_stream";
    const bool direct_knn = !stream;
    // The scheduler and both caches are on short_stream's path only.
    for (const char* name :
         {"sched.fused_frac", "sched.group_size_mean", "sched.shared_bin_frac",
          "feature_cache.hit_rate", "self_ms_per_op.query.scheduler"}) {
      if (stream) {
        EXPECT_GT(Value(report, name), 0.0) << name;
      } else {
        EXPECT_EQ(Value(report, name), 0.0) << name;
      }
    }
    // Direct k-NN calls carry the filter/refine split as attributed spans.
    if (direct_knn) {
      EXPECT_GT(Value(report, "self_ms_per_op.query.engine") +
                    Value(report, "self_ms_per_op.distance"),
                0.0);
      EXPECT_GT(Value(report, "trace.accounted_frac"), 0.5);
    }
  }
}

TEST(BenchE2eTest, TracedRunSpanTreeIsWellFormed) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const RunReport report = TinyRun(workload, true);
    const SpanLog& log = report.spans;
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log.Check(), "");

    const std::vector<Span>& spans = log.spans();
    std::set<uint64_t> op_ids;
    std::vector<int> children(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent < 0) {
        if (s.name == "op") {
          EXPECT_TRUE(op_ids.insert(s.op).second);
        }
        continue;
      }
      // No orphans: the parent exists, precedes, and encloses the child.
      ASSERT_LT(static_cast<size_t>(s.parent), i);
      const Span& p = spans[s.parent];
      EXPECT_LE(p.start, s.start);
      EXPECT_GE(p.end, s.end);
      EXPECT_EQ(p.op, s.op);
      ++children[s.parent];
    }
    EXPECT_FALSE(op_ids.empty());
    // Every op root holds at least one call into a layer.
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0 && spans[i].name == "op") {
        EXPECT_GT(children[i], 0) << "op " << spans[i].op;
      }
    }
  }
}

TEST(BenchE2eTest, SpanCheckRejectsMalformedTrees) {
  {
    SpanLog log;
    const int root = log.Add("op", 0.0, 1.0, -1, 7);
    log.Add("pruning", 0.5, 1.5, root, 7);
    EXPECT_NE(log.Check(), "");  // child ends after its parent
  }
  {
    SpanLog log;
    log.Add("op", 0.0, 1.0, -1, 7);
    log.Add("op", 2.0, 3.0, -1, 7);
    EXPECT_NE(log.Check(), "");  // one op id on two roots
  }
  {
    SpanLog log;
    const int root = log.Add("op", 0.0, 1.0, -1, 7);
    log.Add("pruning", 0.1, 0.2, root, 8);
    EXPECT_NE(log.Check(), "");  // op id differs from the parent's
  }
  {
    SpanLog log;
    log.Add("pruning", 0.1, 0.2, 3, 7);
    EXPECT_NE(log.Check(), "");  // orphan: no such parent
  }
}

TEST(BenchE2eTest, SelfTimeSubtractsCoveredChildren) {
  SpanLog log;
  const int root = log.Add("op", 0.0, 10.0, -1, 1);
  const int call = log.Add("query.engine", 1.0, 9.0, root, 1);
  log.Add("pruning", 1.0, 3.0, call, 1, true);
  log.Add("distance", 3.0, 8.0, call, 1, true);
  log.Add("probe", 20.0, 30.0, -1, 2);  // a different root kind
  const auto self = log.SelfSeconds("op");
  EXPECT_DOUBLE_EQ(self.at("op"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("query.engine"), 1.0);
  EXPECT_DOUBLE_EQ(self.at("pruning"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("distance"), 5.0);
  EXPECT_EQ(self.count("probe"), 0u);
}

}  // namespace
}  // namespace edr::bench_e2e
