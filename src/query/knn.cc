#include "query/knn.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "query/topk.h"

namespace edr {

void KnnResultList::Offer(uint32_t id, double distance) {
  if (neighbors_.size() >= k_ && distance >= KthDistance()) return;
  const Neighbor candidate{id, distance};
  const auto pos = std::upper_bound(
      neighbors_.begin(), neighbors_.end(), candidate,
      [](const Neighbor& a, const Neighbor& b) {
        return a.distance < b.distance;
      });
  neighbors_.insert(pos, candidate);
  if (neighbors_.size() > k_) neighbors_.pop_back();
}

void RecordQueryMetrics(const SearchStats& stats) {
  if constexpr (kObsEnabled) {
    // Resolved once; registry entries live for the process lifetime.
    static ObsCounter& queries =
        MetricsRegistry::Global().Counter("query.count");
    static ObsCounter& dp_total =
        MetricsRegistry::Global().Counter("query.dp_total");
    static ObsCounter& dp_cells =
        MetricsRegistry::Global().Counter("query.dp_cells");
    static ObsCounter& qgram_skipped =
        MetricsRegistry::Global().Counter("query.qgram_skipped");
    static ObsCounter& triangle_skipped =
        MetricsRegistry::Global().Counter("query.triangle_skipped");
    static ObsCounter& pruned =
        MetricsRegistry::Global().Counter("query.candidates_pruned");
    static ObsCounter& scanned =
        MetricsRegistry::Global().Counter("query.candidates_total");
    static LatencyHistogram& latency =
        MetricsRegistry::Global().Histogram("query.seconds");
    queries.Inc();
    dp_total.Inc(stats.edr_computed);
    dp_cells.Inc(stats.stages.dp_cells);
    qgram_skipped.Inc(stats.stages.qgram_skipped);
    triangle_skipped.Inc(stats.stages.triangle_skipped);
    scanned.Inc(stats.db_size);
    pruned.Inc(stats.db_size >= stats.edr_computed
                   ? stats.db_size - stats.edr_computed
                   : 0);
    latency.Record(stats.elapsed_seconds);
  } else {
    (void)stats;
  }
}

KnnResult SequentialScanKnn(const TrajectoryDataset& db,
                            const Trajectory& query, size_t k, double epsilon,
                            const SeqScanOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  TraceSpan scan_span(trace.get(), "scan");
  KnnResultList result(k);
  size_t computed = 0;
  StageCounters stages;
  for (const Trajectory& s : db) {
    double dist = 0.0;
    bool abandoned = false;
    if (options.early_abandon) {
      const int bound = EdrBoundFromKthDistance(result.KthDistance());
      const int d =
          EdrDistanceBoundedWith(kernel, scratch, query, s, epsilon, bound);
      abandoned = d > bound;
      dist = static_cast<double>(d);
    } else {
      dist = static_cast<double>(
          EdrDistanceWith(kernel, scratch, query, s, epsilon));
    }
    ++computed;
    if constexpr (kObsEnabled) {
      ++stages.considered;
      ++stages.dp_invoked;
      if (abandoned) ++stages.dp_early_abandoned;
      stages.dp_cells +=
          static_cast<uint64_t>(scratch.last_rows()) * scratch.last_columns();
    }
    result.Offer(s.id(), dist);
  }
  scan_span.End();
  const auto stop = std::chrono::steady_clock::now();

  KnnResult out;
  out.neighbors = std::move(result).TakeNeighbors();
  out.stats.db_size = db.size();
  out.stats.edr_computed = computed;
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  // The baseline has no filter phase: all time is refinement.
  out.stats.refine_seconds = out.stats.elapsed_seconds;
  stages.FinalizeNotVisited(db.size());
  out.stats.stages = stages;
  out.trace = std::move(trace);
  RecordQueryMetrics(out.stats);
  return out;
}

KnnResult SequentialScanRange(const TrajectoryDataset& db,
                              const Trajectory& query, int radius,
                              double epsilon) {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  KnnResult out;
  StageCounters stages;
  for (const Trajectory& s : db) {
    const int dist = EdrDistanceWith(kernel, scratch, query, s, epsilon);
    if constexpr (kObsEnabled) {
      ++stages.considered;
      ++stages.dp_invoked;
      stages.dp_cells +=
          static_cast<uint64_t>(scratch.last_rows()) * scratch.last_columns();
    }
    if (dist <= radius) {
      out.neighbors.push_back({s.id(), static_cast<double>(dist)});
    }
  }
  SortNeighborsAscending(&out.neighbors);
  const auto stop = std::chrono::steady_clock::now();
  out.stats.db_size = db.size();
  out.stats.edr_computed = db.size();
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  out.stats.refine_seconds = out.stats.elapsed_seconds;
  stages.FinalizeNotVisited(db.size());
  out.stats.stages = stages;
  RecordQueryMetrics(out.stats);
  return out;
}

bool SameKnnDistances(const KnnResult& expected, const KnnResult& actual) {
  if (expected.neighbors.size() != actual.neighbors.size()) return false;
  for (size_t i = 0; i < expected.neighbors.size(); ++i) {
    if (expected.neighbors[i].distance != actual.neighbors[i].distance) {
      return false;
    }
  }
  return true;
}

}  // namespace edr
