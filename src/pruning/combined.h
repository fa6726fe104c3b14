#ifndef EDR_PRUNING_COMBINED_H_
#define EDR_PRUNING_COMBINED_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "pruning/histogram.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram.h"
#include "query/knn.h"

namespace edr {

struct RefineTarget;

/// The three orthogonal pruning techniques of Section 4, combinable in any
/// order (Section 4.4).
enum class PruneStep {
  kHistogram,     ///< histogram lower bound ("H")
  kQgram,         ///< mean-value Q-gram count filter, merge-join form ("P")
  kNearTriangle,  ///< near triangle inequality ("N")
};

/// Configuration of a combined searcher.
struct CombinedOptions {
  /// Application order; the paper's best (Figure 11) is H, then P, then N:
  /// cheap high-power filters first leave fewer candidates for the rest.
  std::array<PruneStep, 3> order = {PruneStep::kHistogram, PruneStep::kQgram,
                                    PruneStep::kNearTriangle};
  /// 2-D trajectory histograms ("2HPN") or per-dimension 1-D histograms
  /// ("1HPN", the overall winner in Figures 12-13).
  HistogramTable::Kind histogram_kind = HistogramTable::Kind::k2D;
  int histogram_delta = 1;
  /// Column storage policy of the histogram table (pure memory/speed knob;
  /// results are identical across layouts).
  HistogramLayout histogram_layout = HistogramLayout::kAdaptive;
  /// Q-gram size; the experiments pick the merge-join PS2 filter with
  /// q = 1 (Section 5.4), the best stand-alone Q-gram configuration.
  int q = 1;
  /// Reference-trajectory budget for near-triangle pruning.
  size_t max_triangle = 400;
  /// When the histogram filter runs first, visit candidates in ascending
  /// histogram-bound order (the HSR strategy adopted by Section 5.4's
  /// combined method). Disable to scan in database order regardless, which
  /// makes the pruning power identical across all six filter orders (the
  /// Figure 11 setting).
  bool sorted_histogram_scan = true;
};

/// k-NN searcher combining histogram, Q-gram, and near-triangle pruning
/// (the Figure 6 skeleton, generalized to all six application orders).
///
/// When histogram pruning is the first step, candidates are visited in
/// ascending histogram-distance order (the HSR strategy chosen for the
/// combined method in Section 5.4) and the scan stops at the first bound
/// exceeding the k-th distance; otherwise candidates are visited in
/// database order and every filter is evaluated lazily.
///
/// All three filters are lossless, so any order returns exactly the
/// sequential-scan answer; order only changes the running time.
class CombinedKnnSearcher {
 public:
  /// Builds all filter structures, including the reference columns of the
  /// pairwise EDR matrix (offline preprocessing, as in the paper).
  CombinedKnnSearcher(const TrajectoryDataset& db, double epsilon,
                      const CombinedOptions& options);

  /// Variant sharing a pre-built pairwise matrix across searchers.
  CombinedKnnSearcher(const TrajectoryDataset& db, double epsilon,
                      const CombinedOptions& options,
                      PairwiseEdrMatrix matrix);

  /// `options` shards the bound sweep and refinement over the thread pool;
  /// results are bit-identical for every worker count.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Answers a fusion group of queries with one cache-blocked pass over
  /// the histogram table (the only whole-database filter sweep the
  /// combined searcher runs up front — Q-gram counts and near-triangle
  /// bounds are evaluated lazily per candidate and stay per-query).
  /// `results[i]` is bit-identical to `Knn(*queries[i], k, options)`.
  std::vector<KnnResult> KnnFused(
      const std::vector<const Trajectory*>& queries, size_t k,
      const KnnOptions& options = {}) const;

  /// Occupied-bin signature for the similarity-aware fusion grouper,
  /// delegated to the histogram table (the structure the fused sweep
  /// shares). Purely advisory.
  uint64_t FusionFingerprint(const Trajectory& query) const {
    return histograms_.QueryBinSignature(query);
  }

  /// Range query: every trajectory within `radius` of the query, ascending
  /// by (distance, id). Runs the k-NN filter pass and refinement against
  /// the fixed radius, in the same visit order: ascending histogram bound
  /// with a stop at the first bound above the radius when the histogram
  /// filter runs first, database order otherwise. Sequential (default
  /// KnnOptions). Lossless.
  KnnResult Range(const Trajectory& query, int radius) const;

  /// e.g. "2HPN", "1HPN", "2PNH" — histogram kind prefix plus the order.
  std::string name() const;

  const CombinedOptions& options() const { return options_; }

 private:
  /// The single-query filter pass (query features, one bound sweep)
  /// followed by RefineWithBounds; Knn and Range both run it.
  KnnResult Search(const Trajectory& query, const RefineTarget& target,
                   const KnnOptions& options) const;

  /// The per-query tail shared by Search and KnnFused: the lazy filter
  /// chain over precomputed histogram bounds, bounded refinement towards
  /// `target`, stats/trace.
  KnnResult RefineWithBounds(const Trajectory& query,
                             const RefineTarget& target,
                             const KnnOptions& options,
                             const std::vector<int>& bounds,
                             const std::vector<Point2>& query_means,
                             std::shared_ptr<QueryTrace> trace,
                             double filter_seconds) const;

  const TrajectoryDataset& db_;
  double epsilon_;
  CombinedOptions options_;
  HistogramTable histograms_;
  QgramMeansTable qgram_means_;  // flat sorted per-trajectory Q-gram means
  PairwiseEdrMatrix matrix_;
};

/// All six orderings of {H, P, N}, for the Figure 11 sweep.
std::vector<std::array<PruneStep, 3>> AllPruneOrders();

/// One-letter code of a step ("H", "P", "N").
char PruneStepCode(PruneStep step);

}  // namespace edr

#endif  // EDR_PRUNING_COMBINED_H_
