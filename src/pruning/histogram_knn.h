#ifndef EDR_PRUNING_HISTOGRAM_KNN_H_
#define EDR_PRUNING_HISTOGRAM_KNN_H_

#include <memory>
#include <string>

#include "core/dataset.h"
#include "pruning/histogram.h"
#include "query/knn.h"

namespace edr {

struct RefineTarget;

/// Scan orders for histogram pruning (Section 4.3):
enum class HistogramScan {
  kSequential,  ///< "HSE": visit trajectories in database order.
  kSorted,      ///< "HSR": visit in ascending histogram-distance order.
};

/// k-NN searcher using the histogram lower bound (Theorem 6 / Corollary 1).
///
/// HSE visits candidates in database order and computes the true EDR only
/// when the histogram distance does not exceed the current k-th distance.
/// HSR first computes all histogram distances, sorts them ascending, and
/// stops the entire scan at the first candidate whose lower bound exceeds
/// the (monotonically non-increasing) k-th distance — every later
/// candidate has an even larger lower bound.
class HistogramKnnSearcher {
 public:
  /// `kind`/`delta` select the embedding: {k2D, delta} covers the paper's
  /// 2HE (delta=1) through 2H4E (delta=4); {k1D, 1} is 1HE. `layout`
  /// picks the table's column storage policy (a pure memory/speed knob —
  /// identical results either way).
  HistogramKnnSearcher(const TrajectoryDataset& db, double epsilon,
                       HistogramTable::Kind kind, int delta,
                       HistogramScan scan,
                       HistogramLayout layout = HistogramLayout::kAdaptive);

  /// `options` shards the bound sweep and refinement over the thread pool;
  /// results are bit-identical for every worker count.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Answers a fusion group of queries with one cache-blocked pass over
  /// the histogram table: the fused sweep streams every column block once
  /// and evaluates all members' transport bounds against it, then each
  /// member runs the unchanged per-query refinement. `results[i]` is
  /// bit-identical to `Knn(*queries[i], k, options)` for every group size
  /// and worker count — fusing changes only how often the table is
  /// streamed, never any member's bound sequence.
  std::vector<KnnResult> KnnFused(
      const std::vector<const Trajectory*>& queries, size_t k,
      const KnnOptions& options = {}) const;

  /// Occupied-bin signature for the similarity-aware fusion grouper (see
  /// HistogramTable::QueryBinSignature). Purely advisory.
  uint64_t FusionFingerprint(const Trajectory& query) const {
    return table_.QueryBinSignature(query);
  }

  /// Range query: every trajectory within `radius` of the query, ascending
  /// by (distance, id). Runs the k-NN filter pass and refinement against
  /// the fixed radius, in the same visit order: HSE in database order, HSR
  /// in ascending-bound order stopping at the first bound above the
  /// radius. Sequential (default KnnOptions). Lossless.
  KnnResult Range(const Trajectory& query, int radius) const;

  const HistogramTable& table() const { return table_; }
  std::string name() const;

 private:
  /// The single-query filter pass (one bound sweep) followed by
  /// RefineWithBounds; Knn and Range both run it.
  KnnResult Search(const Trajectory& query, const RefineTarget& target,
                   const KnnOptions& options) const;

  /// The refinement phase shared by Search and KnnFused: scans candidates
  /// against precomputed lower bounds (HSE database order or HSR sorted
  /// order) towards `target`, fills in stats/trace, and records query
  /// metrics.
  KnnResult RefineWithBounds(const Trajectory& query,
                             const RefineTarget& target,
                             const KnnOptions& options,
                             const std::vector<int>& bounds,
                             std::shared_ptr<QueryTrace> trace,
                             double filter_seconds) const;

  const TrajectoryDataset& db_;
  double epsilon_;
  HistogramScan scan_;
  HistogramTable table_;
};

}  // namespace edr

#endif  // EDR_PRUNING_HISTOGRAM_KNN_H_
