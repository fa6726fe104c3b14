#include "pruning/combined.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "pruning/filter_gate.h"
#include "pruning/qgram.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"
#include "query/topk.h"

namespace edr {

std::vector<std::array<PruneStep, 3>> AllPruneOrders() {
  const PruneStep h = PruneStep::kHistogram;
  const PruneStep p = PruneStep::kQgram;
  const PruneStep n = PruneStep::kNearTriangle;
  return {{h, p, n}, {h, n, p}, {p, h, n}, {p, n, h}, {n, h, p}, {n, p, h}};
}

char PruneStepCode(PruneStep step) {
  switch (step) {
    case PruneStep::kHistogram: return 'H';
    case PruneStep::kQgram: return 'P';
    case PruneStep::kNearTriangle: return 'N';
  }
  return '?';
}

CombinedKnnSearcher::CombinedKnnSearcher(const TrajectoryDataset& db,
                                         double epsilon,
                                         const CombinedOptions& options)
    : CombinedKnnSearcher(
          db, epsilon, options,
          PairwiseEdrMatrix::Build(db, epsilon, options.max_triangle)) {}

CombinedKnnSearcher::CombinedKnnSearcher(const TrajectoryDataset& db,
                                         double epsilon,
                                         const CombinedOptions& options,
                                         PairwiseEdrMatrix matrix)
    : db_(db),
      epsilon_(epsilon),
      options_(options),
      histograms_(db, epsilon, options.histogram_kind,
                  options.histogram_delta, options.histogram_layout),
      qgram_means_(db, options.q, /*dims=*/2),
      matrix_(std::move(matrix)) {}

KnnResult CombinedKnnSearcher::Knn(const Trajectory& query, size_t k,
                                   const KnnOptions& options) const {
  if (k == 0) return EmptyKnnResult(db_.size());
  return Search(query, RefineTarget::Nearest(k), options);
}

KnnResult CombinedKnnSearcher::Range(const Trajectory& query,
                                     int radius) const {
  return Search(query, RefineTarget::Within(radius), KnnOptions{});
}

KnnResult CombinedKnnSearcher::Search(const Trajectory& query,
                                      const RefineTarget& target,
                                      const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  RecordSchedBudget(trace.get(), options);
  TraceSpan sweep_span(trace.get(), "bound_sweep");
  // Both query features go through the cache under the same keys the
  // standalone histogram / PS2 searchers use, so a mixed workload shares
  // entries across methods.
  const auto qh_ptr = GetOrBuildFeature<HistogramTable::QueryHistogram>(
      options.feature_cache, histograms_.feature_key(), query,
      [&] { return histograms_.MakeQueryHistogram(query); });
  const HistogramTable::QueryHistogram& qh = *qh_ptr;
  const auto means_ptr = GetOrBuildFeature<std::vector<Point2>>(
      options.feature_cache,
      "qgram.means2d.sorted/q=" + std::to_string(options_.q), query, [&] {
        std::vector<Point2> m = MeanValueQgrams(query, options_.q);
        SortMeans(m);
        return m;
      });
  const std::vector<Point2>& query_means = *means_ptr;

  // Every prune order contains the histogram step, so all fast lower
  // bounds are produced up front by one vectorized sweep (sharded over the
  // pool) — far cheaper than per-row calls even for ids a preceding filter
  // would have pruned. When the histogram filter runs first (and sorted
  // scanning is enabled) we additionally adopt the HSR strategy:
  // candidates in ascending-bound order, hard stop at the first bound
  // above the threshold.
  std::vector<int> bounds;
  histograms_.FastLowerBoundSweepParallel(qh, &bounds, options);
  sweep_span.End();
  return RefineWithBounds(query, target, options, bounds, query_means,
                          std::move(trace), SecondsSince(start));
}

std::vector<KnnResult> CombinedKnnSearcher::KnnFused(
    const std::vector<const Trajectory*>& queries, size_t k,
    const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  const size_t group = queries.size();
  if (k == 0) {
    return std::vector<KnnResult>(group, EmptyKnnResult(db_.size()));
  }
  std::vector<KnnResult> results(group);
  if (group == 0) return results;

  std::vector<std::shared_ptr<QueryTrace>> traces(group);
  std::vector<int32_t> span_ids(group, -1);
  std::vector<std::shared_ptr<const HistogramTable::QueryHistogram>> features(
      group);
  std::vector<std::shared_ptr<const std::vector<Point2>>> mean_features(
      group);
  std::vector<const HistogramTable::QueryHistogram*> qhs(group);
  std::vector<std::vector<int>> bounds(group);
  std::vector<std::vector<int>*> outs(group);
  for (size_t f = 0; f < group; ++f) {
    traces[f] = MakeQueryTrace();
    RecordSchedBudget(traces[f].get(), options);
    if (traces[f] != nullptr) span_ids[f] = traces[f]->Begin("fused_sweep");
    features[f] = GetOrBuildFeature<HistogramTable::QueryHistogram>(
        options.feature_cache, histograms_.feature_key(), *queries[f],
        [&] { return histograms_.MakeQueryHistogram(*queries[f]); });
    mean_features[f] = GetOrBuildFeature<std::vector<Point2>>(
        options.feature_cache,
        "qgram.means2d.sorted/q=" + std::to_string(options_.q), *queries[f],
        [&] {
          std::vector<Point2> m = MeanValueQgrams(*queries[f], options_.q);
          SortMeans(m);
          return m;
        });
    qhs[f] = features[f].get();
    outs[f] = &bounds[f];
  }
  // The histogram sweep — the one up-front whole-database pass — is fused;
  // the lazy Q-gram and near-triangle filters run inside each member's
  // refinement exactly as in the single-query path.
  histograms_.FastLowerBoundSweepFusedParallel(qhs, outs, options);
  for (size_t f = 0; f < group; ++f) {
    if (traces[f] != nullptr) traces[f]->End(span_ids[f]);
  }
  const double filter_seconds = SecondsSince(start);
  for (size_t f = 0; f < group; ++f) {
    results[f] = RefineWithBounds(*queries[f], RefineTarget::Nearest(k),
                                  options, bounds[f], *mean_features[f],
                                  std::move(traces[f]), filter_seconds);
  }
  return results;
}

KnnResult CombinedKnnSearcher::RefineWithBounds(
    const Trajectory& query, const RefineTarget& target,
    const KnnOptions& options, const std::vector<int>& bounds,
    const std::vector<Point2>& query_means,
    std::shared_ptr<QueryTrace> trace, double filter_seconds) const {
  const auto refine_start = std::chrono::steady_clock::now();
  const bool histogram_first = options_.order[0] == PruneStep::kHistogram &&
                               options_.sorted_histogram_scan;
  const EdrKernel kernel = DefaultEdrKernel();
  const unsigned slots = ResolveIntraQueryWorkers(options);
  std::vector<std::vector<std::pair<uint32_t, double>>> proc(slots);
  for (auto& p : proc) p.reserve(matrix_.num_refs());
  RefineLedger ledger(options);
  // Per-slot gates on the lazy P and N tests (none under kAlways).
  const bool gated = options_.lazy_filters == LazyFilters::kCostGated;
  const FilterCostWeights& weights = FilterCostWeightsFor(ActiveKernelLevel());
  std::vector<LazyChainGate> gates(gated ? slots : 0);

  const auto refine = [&](unsigned slot, uint32_t id, double best,
                          double* dist) {
    const Trajectory& s = db_[id];
    StageCounters& st = ledger.stages(slot);
    st.Bump(&StageCounters::considered);
    std::vector<std::pair<uint32_t, double>>& proc_array = proc[slot];
    LazyChainGate* gate = gated ? &gates[slot] : nullptr;
    for (const PruneStep step : options_.order) {
      switch (step) {
        case PruneStep::kHistogram: {
          // The linear-time transport bound; the exact max-flow bound adds
          // almost no pruning at many times the cost (see bench_ablation)
          // and is not consulted on the query path.
          if (static_cast<double>(bounds[id]) > best) {
            st.Bump(&StageCounters::histogram_pruned);
            return false;
          }
          break;
        }
        case PruneStep::kQgram: {
          if (std::isinf(best)) break;  // Cannot prune before k seeds.
          const long best_k = static_cast<long>(best);
          const long threshold = QgramCountThreshold(
              query.size(), s.size(), options_.q, best_k);
          if (threshold <= 0) break;
          if (gate != nullptr && !gate->qgram.ShouldTest(gate->MeanDpCost())) {
            st.Bump(&StageCounters::qgram_skipped);
            break;
          }
          size_t visited = 0;
          const bool pruned = !qgram_means_.CountMatches2DAtLeast(
              query_means, epsilon_, id, threshold, &visited);
          if (gate != nullptr) {
            gate->qgram.Record(pruned, weights.QgramTest(visited));
          }
          if (pruned) {
            st.Bump(&StageCounters::qgram_pruned);
            return false;
          }
          break;
        }
        case PruneStep::kNearTriangle: {
          if (std::isinf(best)) break;  // Cannot prune before k seeds.
          if (gate != nullptr &&
              !gate->triangle.ShouldTest(gate->MeanDpCost())) {
            st.Bump(&StageCounters::triangle_skipped);
            break;
          }
          double max_prune_dist = 0.0;
          for (const auto& [ref_id, ref_dist] : proc_array) {
            const double bound = ref_dist - matrix_.at(ref_id, id) -
                                 static_cast<double>(s.size());
            max_prune_dist = std::max(max_prune_dist, bound);
          }
          const bool pruned = max_prune_dist > best;
          if (gate != nullptr) {
            gate->triangle.Record(pruned,
                                  weights.TriangleTest(proc_array.size()));
          }
          if (pruned) {
            st.Bump(&StageCounters::triangle_pruned);
            return false;
          }
          break;
        }
      }
    }

    // Bounded refinement; lower-bound reference distances only weaken the
    // near-triangle prune bound, never unsound it. A DP against a finite
    // threshold is what a lazy prune would have saved, so the gates price
    // it from the cells the kernel actually ran.
    const int bound = EdrBoundFromKthDistance(best);
    EdrScratch& scratch = ThreadLocalEdrScratch();
    const int d =
        EdrDistanceBoundedWith(kernel, scratch, query, s, epsilon_, bound);
    ledger.CountDp(slot, scratch);
    if (gate != nullptr && !std::isinf(best)) {
      gate->RecordDp(
          weights.Dp(kernel, scratch.last_rows(), scratch.last_columns()));
    }
    if (id < matrix_.num_refs() && proc_array.size() < matrix_.num_refs()) {
      proc_array.emplace_back(id, static_cast<double>(d));
    }
    if (d > bound) {
      st.Bump(&StageCounters::dp_early_abandoned);
      return false;
    }
    *dist = static_cast<double>(d);
    return true;
  };

  TraceSpan refine_span(trace.get(), "refine");
  const TraceContext tc{trace.get(), refine_span.id()};
  KnnResult out;
  if (histogram_first) {
    std::vector<StreamingOrder<int>::Entry> entries(db_.size());
    for (size_t i = 0; i < db_.size(); ++i) {
      entries[i] = {bounds[i], static_cast<uint32_t>(i)};
    }
    // In sorted order every remaining fast bound is >= the stopping one.
    const auto stop = [](int key, double threshold) {
      return static_cast<double>(key) > threshold;
    };
    out.neighbors = RefineToTarget(target, [&](auto& sink) {
      return RefineInKeyOrder<int>(std::move(entries), sink, options, refine,
                                   stop, tc);
    });
  } else {
    out.neighbors = RefineToTarget(target, [&](auto& sink) {
      return RefineInDbOrder(db_.size(), sink, options, refine, tc);
    });
  }
  refine_span.End();
  ledger.Finish(&out, db_.size(), filter_seconds, refine_start,
                std::move(trace));
  return out;
}

std::string CombinedKnnSearcher::name() const {
  std::string out =
      options_.histogram_kind == HistogramTable::Kind::k2D ? "2" : "1";
  for (const PruneStep step : options_.order) out += PruneStepCode(step);
  return out;
}

}  // namespace edr
