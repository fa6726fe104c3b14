#include "pruning/histogram_knn.h"

#include <chrono>
#include <vector>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"
#include "query/topk.h"

namespace edr {

HistogramKnnSearcher::HistogramKnnSearcher(const TrajectoryDataset& db,
                                           double epsilon,
                                           HistogramTable::Kind kind,
                                           int delta, HistogramScan scan,
                                           HistogramLayout layout)
    : db_(db),
      epsilon_(epsilon),
      scan_(scan),
      table_(db, epsilon, kind, delta, layout) {}

KnnResult HistogramKnnSearcher::Knn(const Trajectory& query, size_t k,
                                    const KnnOptions& options) const {
  if (k == 0) return EmptyKnnResult(db_.size());
  return Search(query, RefineTarget::Nearest(k), options);
}

KnnResult HistogramKnnSearcher::Range(const Trajectory& query,
                                      int radius) const {
  return Search(query, RefineTarget::Within(radius), KnnOptions{});
}

KnnResult HistogramKnnSearcher::Search(const Trajectory& query,
                                       const RefineTarget& target,
                                       const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  RecordSchedBudget(trace.get(), options);
  TraceSpan sweep_span(trace.get(), "bound_sweep");
  const std::shared_ptr<const HistogramTable::QueryHistogram> qh_ptr =
      GetOrBuildFeature<HistogramTable::QueryHistogram>(
          options.feature_cache, table_.feature_key(), query,
          [&] { return table_.MakeQueryHistogram(query); });
  const HistogramTable::QueryHistogram& qh = *qh_ptr;

  // Both scans consume the whole bound array anyway, so it is produced by
  // one vectorized sweep over the flat tables instead of n per-row calls.
  // (The exact max-flow bound prunes almost nothing beyond the fast bound
  // at ~25x the cost, so the searchers do not consult it; see
  // bench_ablation for the measured tightness gap.)
  std::vector<int> bounds;
  table_.FastLowerBoundSweepParallel(qh, &bounds, options);
  sweep_span.End();
  return RefineWithBounds(query, target, options, bounds, std::move(trace),
                          SecondsSince(start));
}

std::vector<KnnResult> HistogramKnnSearcher::KnnFused(
    const std::vector<const Trajectory*>& queries, size_t k,
    const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  const size_t group = queries.size();
  if (k == 0) {
    return std::vector<KnnResult>(group, EmptyKnnResult(db_.size()));
  }
  std::vector<KnnResult> results(group);
  if (group == 0) return results;

  // Per-member features go through the same cache keys as the single-query
  // path; each member's trace records the shared database pass as a
  // "fused_sweep" span (all members pay — and amortize — the one sweep).
  std::vector<std::shared_ptr<QueryTrace>> traces(group);
  std::vector<int32_t> span_ids(group, -1);
  std::vector<std::shared_ptr<const HistogramTable::QueryHistogram>> features(
      group);
  std::vector<const HistogramTable::QueryHistogram*> qhs(group);
  std::vector<std::vector<int>> bounds(group);
  std::vector<std::vector<int>*> outs(group);
  for (size_t f = 0; f < group; ++f) {
    traces[f] = MakeQueryTrace();
    RecordSchedBudget(traces[f].get(), options);
    if (traces[f] != nullptr) span_ids[f] = traces[f]->Begin("fused_sweep");
    features[f] = GetOrBuildFeature<HistogramTable::QueryHistogram>(
        options.feature_cache, table_.feature_key(), *queries[f],
        [&] { return table_.MakeQueryHistogram(*queries[f]); });
    qhs[f] = features[f].get();
    outs[f] = &bounds[f];
  }
  table_.FastLowerBoundSweepFusedParallel(qhs, outs, options);
  for (size_t f = 0; f < group; ++f) {
    if (traces[f] != nullptr) traces[f]->End(span_ids[f]);
  }
  const double filter_seconds = SecondsSince(start);
  for (size_t f = 0; f < group; ++f) {
    results[f] = RefineWithBounds(*queries[f], RefineTarget::Nearest(k),
                                  options, bounds[f], std::move(traces[f]),
                                  filter_seconds);
  }
  return results;
}

KnnResult HistogramKnnSearcher::RefineWithBounds(
    const Trajectory& query, const RefineTarget& target,
    const KnnOptions& options, const std::vector<int>& bounds,
    std::shared_ptr<QueryTrace> trace, double filter_seconds) const {
  const auto refine_start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  RefineLedger ledger(options);
  // Refines one candidate against the threshold (the running k-th
  // distance, or the radius); true iff the bounded DP ran to an exact
  // value (<= the bound it was given).
  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    StageCounters& st = ledger.stages(slot);
    st.Bump(&StageCounters::considered);
    if (static_cast<double>(bounds[id]) > threshold) {
      st.Bump(&StageCounters::histogram_pruned);
      return false;
    }
    const int bound = EdrBoundFromKthDistance(threshold);
    const int d = EdrDistanceBoundedWith(kernel, ThreadLocalEdrScratch(),
                                         query, db_[id], epsilon_, bound);
    ledger.CountDp(slot, query.size(), db_[id].size());
    if (d > bound) {  // Abandoned: a lower bound, not exact.
      st.Bump(&StageCounters::dp_early_abandoned);
      return false;
    }
    *dist = static_cast<double>(d);
    return true;
  };

  TraceSpan refine_span(trace.get(), "refine");
  const TraceContext tc{trace.get(), refine_span.id()};
  KnnResult out;
  if (scan_ == HistogramScan::kSequential) {
    // HSE: one pass in database order, filtering with the linear-time
    // transport bound.
    out.neighbors = RefineToTarget(target, [&](auto& sink) {
      return RefineInDbOrder(db_.size(), sink, options, refine, tc);
    });
  } else {
    // HSR: visit candidates in ascending bound order; the scan stops
    // outright once the bound exceeds the threshold — every later
    // candidate has an even larger bound.
    std::vector<StreamingOrder<int>::Entry> entries(db_.size());
    for (size_t i = 0; i < db_.size(); ++i) {
      entries[i] = {bounds[i], static_cast<uint32_t>(i)};
    }
    const auto stop = [](int key, double threshold) {
      return static_cast<double>(key) > threshold;
    };
    out.neighbors = RefineToTarget(target, [&](auto& sink) {
      return RefineInKeyOrder<int>(std::move(entries), sink, options, refine,
                                   stop, tc);
    });
  }
  refine_span.End();
  ledger.Finish(&out, db_.size(), filter_seconds, refine_start,
                std::move(trace));
  return out;
}

std::string HistogramKnnSearcher::name() const {
  std::string base = table_.kind() == HistogramTable::Kind::k2D
                         ? "2H" + std::to_string(table_.delta()) + "E"
                         : "1HE";
  if (table_.kind() == HistogramTable::Kind::k2D && table_.delta() == 1) {
    base = "2HE";
  }
  return (scan_ == HistogramScan::kSorted ? "HSR-" : "HSE-") + base;
}

}  // namespace edr
