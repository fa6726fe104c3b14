// Intra-query parallelism bench: per-query latency distribution (p50 /
// p95 / max) of the filter-and-refine searchers at 1, 2 and all host cores
// of workers sharding a single query over a dedicated thread pool sized to
// the host, on a 10k-trajectory random walk database.
//
// Emits JSON (stdout, or the file named by argv[1]):
//
//   ./bench/bench_intra_query BENCH_intra_query.json
//
// Every multi-worker run is certified bit-identical to the single-worker
// run before its latency is reported. "host_cores" records the machine's
// core count, which the largest worker count equals.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/rng.h"
#include "core/trajectory.h"
#include "data/generators.h"
#include "pruning/combined.h"
#include "pruning/histogram_knn.h"
#include "pruning/qgram_knn.h"
#include "query/knn.h"
#include "query/thread_pool.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;
constexpr size_t kDbSize = 10000;
constexpr size_t kQueries = 20;
constexpr size_t kK = 10;

struct LatencyRow {
  unsigned workers = 1;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double max_s = 0.0;
  bool identical = true;
};

double NearestRank(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  idx = idx > 0 ? idx - 1 : 0;
  idx = std::min(idx, sorted.size() - 1);
  return sorted[idx];
}

bool SameNeighbors(const KnnResult& a, const KnnResult& b) {
  if (a.neighbors.size() != b.neighbors.size()) return false;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    if (a.neighbors[i].id != b.neighbors[i].id ||
        a.neighbors[i].distance != b.neighbors[i].distance) {
      return false;
    }
  }
  return true;
}

using KnnFn = std::function<KnnResult(const Trajectory&, const KnnOptions&)>;

std::vector<LatencyRow> MeasureMethod(
    const char* name, const KnnFn& knn,
    const std::vector<Trajectory>& queries, ThreadPool& pool) {
  // Single-worker reference answers for the bit-identity certification.
  std::vector<KnnResult> reference;
  reference.reserve(queries.size());
  for (const Trajectory& q : queries) reference.push_back(knn(q, {}));

  std::vector<LatencyRow> rows;
  const unsigned cores = ThreadPool::HardwareWorkers() + 1;
  std::vector<unsigned> worker_counts = {1u};
  if (cores > 2) worker_counts.push_back(2u);
  if (cores > 1) worker_counts.push_back(cores);
  for (const unsigned workers : worker_counts) {
    KnnOptions options;
    options.intra_query_workers = workers;
    options.pool = &pool;

    LatencyRow row;
    row.workers = workers;
    std::vector<double> latencies;
    latencies.reserve(queries.size());
    // One warm-up pass sizes scratch buffers, then the measured pass.
    for (const Trajectory& q : queries) knn(q, options);
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      const KnnResult result = knn(queries[i], options);
      const auto stop = std::chrono::steady_clock::now();
      latencies.push_back(
          std::chrono::duration<double>(stop - start).count());
      row.identical = row.identical && SameNeighbors(reference[i], result);
    }
    std::sort(latencies.begin(), latencies.end());
    row.p50_s = NearestRank(latencies, 0.50);
    row.p95_s = NearestRank(latencies, 0.95);
    row.max_s = latencies.back();
    std::fprintf(stderr,
                 "%-6s workers=%u p50=%.3fms p95=%.3fms max=%.3fms "
                 "identical=%s\n",
                 name, workers, row.p50_s * 1e3, row.p95_s * 1e3,
                 row.max_s * 1e3, row.identical ? "yes" : "NO");
    rows.push_back(row);
  }
  return rows;
}

}  // namespace
}  // namespace edr

int main(int argc, char** argv) {
  using namespace edr;
  bench::WarnIfSingleCore();

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }

  RandomWalkOptions walk_options;
  walk_options.count = kDbSize;
  walk_options.min_length = 20;
  walk_options.max_length = 60;
  walk_options.seed = 17;
  const TrajectoryDataset db = GenRandomWalk(walk_options);
  std::vector<Trajectory> queries;
  for (size_t q = 0; q < kQueries; ++q) {
    queries.push_back(db[(q * db.size()) / kQueries]);
  }

  ThreadPool pool(ThreadPool::HardwareWorkers());

  const HistogramKnnSearcher hsr(db, kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const QgramKnnSearcher ps2(db, kEps, /*q=*/1, QgramVariant::kMerge2D);
  CombinedOptions combined_options;
  combined_options.max_triangle = 100;
  const CombinedKnnSearcher combined(db, kEps, combined_options);

  struct Method {
    const char* name;
    KnnFn knn;
  };
  const std::vector<Method> methods = {
      {"HSR",
       [&](const Trajectory& q, const KnnOptions& o) {
         return hsr.Knn(q, kK, o);
       }},
      {"PS2",
       [&](const Trajectory& q, const KnnOptions& o) {
         return ps2.Knn(q, kK, o);
       }},
      {"2HPN",
       [&](const Trajectory& q, const KnnOptions& o) {
         return combined.Knn(q, kK, o);
       }},
  };

  bool all_identical = true;
  std::string body;
  char buf[512];
  for (size_t m = 0; m < methods.size(); ++m) {
    const auto rows =
        MeasureMethod(methods[m].name, methods[m].knn, queries, pool);
    const double base_p50 = rows.front().p50_s;
    std::snprintf(buf, sizeof(buf), "    {\"method\": \"%s\", \"rows\": [\n",
                  methods[m].name);
    body += buf;
    for (size_t i = 0; i < rows.size(); ++i) {
      const LatencyRow& r = rows[i];
      all_identical = all_identical && r.identical;
      std::snprintf(buf, sizeof(buf),
                    "      {\"workers\": %u, \"p50_ms\": %.3f, "
                    "\"p95_ms\": %.3f, \"max_ms\": %.3f, "
                    "\"speedup_p50_vs_1\": %.2f, \"identical\": %s}%s\n",
                    r.workers, r.p50_s * 1e3, r.p95_s * 1e3, r.max_s * 1e3,
                    base_p50 > 0.0 ? base_p50 / r.p50_s : 0.0,
                    r.identical ? "true" : "false",
                    i + 1 < rows.size() ? "," : "");
      body += buf;
    }
    body += m + 1 < methods.size() ? "    ]},\n" : "    ]}\n";
  }

  std::fprintf(out,
               "{\n  \"bench\": \"intra_query\",\n  \"db_size\": %zu,\n"
               "  \"queries\": %zu,\n  \"k\": %zu,\n  \"epsilon\": %.3f,\n",
               db.size(), queries.size(), kK, kEps);
  bench::FprintHostJson(out);
  std::fprintf(out,
               "  \"methods\": [\n%s  ],\n"
               "  \"identical\": %s\n}\n",
               body.c_str(), all_identical ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return all_identical ? 0 : 1;
}
