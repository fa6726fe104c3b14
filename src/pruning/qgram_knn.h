#ifndef EDR_PRUNING_QGRAM_KNN_H_
#define EDR_PRUNING_QGRAM_KNN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "index/bplus_tree.h"
#include "index/rstar_tree.h"
#include "pruning/qgram.h"
#include "query/knn.h"

namespace edr {

struct RefineTarget;

/// The four implementations of mean-value Q-gram pruning compared in
/// Figures 7 and 8 of the paper.
enum class QgramVariant {
  kRtree2D,  ///< "PR": R*-tree over 2-D Q-gram means.
  kBtree1D,  ///< "PB": B+-tree over means of the projected x sequence.
  kMerge2D,  ///< "PS2": merge join on sorted 2-D means, no index.
  kMerge1D,  ///< "PS1": merge join on sorted 1-D (x) means, no index.
};

/// Short display name matching the paper ("PR", "PB", "PS2", "PS1").
const char* QgramVariantName(QgramVariant variant);

/// k-NN searcher using the mean-value Q-gram count filter (Section 4.1).
///
/// Build phase: extracts the Q-grams of every database trajectory and
/// stores either their mean value pairs in an R*-tree (PR), the means of
/// the x-projection in a B+-tree (PB), or per-trajectory sorted mean lists
/// for merge joins (PS2/PS1).
///
/// Query phase (the Figure 3 skeleton generalized to all variants):
///   1. Count, for each database trajectory S, how many Q-gram means of
///      the query match at least one mean of S.
///   2. Visit trajectories in descending count order; seed the result with
///      the first k true EDR distances.
///   3. For each remaining S, skip it if its count is below the Theorem 1
///      threshold max(|Q|, |S|) - q + 1 - bestSoFar * q; stop the whole
///      scan once the count drops below the smallest threshold any
///      remaining trajectory could have (Theorem 3 guarantees no false
///      dismissals).
class QgramKnnSearcher {
 public:
  QgramKnnSearcher(const TrajectoryDataset& db, double epsilon, int q,
                   QgramVariant variant);

  /// Answers a k-NN query. Thread-compatible: concurrent calls on distinct
  /// searchers are safe; a single searcher is read-only at query time.
  /// `options` shards the counting and refinement passes over the thread
  /// pool; results are bit-identical for every worker count.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Answers a fusion group of queries with one fused counting pass, then
  /// each member runs the unchanged count-ordered refinement; `results[i]`
  /// is bit-identical to `Knn(*queries[i], k, options)`. The merge-join
  /// variants (PS2/PS1) stream the flat posting arrays once, merge-counting
  /// every trajectory's cache-hot mean slice against all members. The
  /// tree-probe variants (PR/PB) fuse too: probe state (`last_gram` dedup +
  /// counts) is per member, making the shared tree's read-only range
  /// probes re-entrant, and the whole group's probes run in one pass
  /// ordered by probe coordinate so neighboring probes share tree paths.
  /// Counts are probe-order invariant — each (member, gram) is probed
  /// exactly once and deduped against that member's own state — which is
  /// what makes the fused tree pass bit-identical to member-wise calls.
  std::vector<KnnResult> KnnFused(
      const std::vector<const Trajectory*>& queries, size_t k,
      const KnnOptions& options = {}) const;

  /// 64-bit gram-posting signature for the similarity-aware fusion
  /// grouper: each Q-gram mean, quantized to its epsilon-sized cell, sets
  /// one mixed bit. Queries whose grams probe overlapping tree/posting
  /// regions get overlapping signatures. Purely advisory — signatures
  /// influence which queries share a fused pass, never any count or
  /// answer.
  uint64_t FusionFingerprint(const Trajectory& query) const;

  /// Answers a range query (all S with EDR(query, S) <= radius, ascending
  /// by (distance, id)) using the Theorem 1 count filter in its original
  /// range form: S is pruned when its matching-gram count falls below
  /// max(|Q|, |S|) - q + 1 - radius * q. Runs the k-NN counting pass and
  /// refinement against the fixed radius, in the same descending-count
  /// order with the same stop. Sequential (default KnnOptions). Lossless.
  KnnResult Range(const Trajectory& query, int radius) const;

  /// Per-trajectory matching-gram counts for a query; exposed for tests
  /// and for the combined searcher. The merge-join variants (PS1/PS2)
  /// count independent per-trajectory slices, so `options` can shard them
  /// over the pool; the tree-probe variants (PR/PB) stay sequential.
  std::vector<size_t> MatchCounts(const Trajectory& query,
                                  const KnnOptions& options = {}) const;

  QgramVariant variant() const { return variant_; }
  int q() const { return q_; }
  std::string name() const;

 private:
  /// The single-query counting pass followed by RefineWithCounts; Knn and
  /// Range both run it.
  KnnResult Search(const Trajectory& query, const RefineTarget& target,
                   const KnnOptions& options) const;

  /// Everything after the counting pass, shared by Search and KnnFused:
  /// descending-count ordering, Theorem-3 pruning, bounded refinement
  /// towards `target`, stats/trace fill-in.
  KnnResult RefineWithCounts(const Trajectory& query,
                             const RefineTarget& target,
                             const KnnOptions& options,
                             const std::vector<size_t>& counts,
                             std::shared_ptr<QueryTrace> trace,
                             double filter_seconds) const;

  const TrajectoryDataset& db_;
  double epsilon_;
  int q_;
  QgramVariant variant_;
  /// FeatureCache config key for this searcher's query mean vector —
  /// encodes the dimensionality, sortedness, and q, the only inputs
  /// besides the query itself. PS2's sorted-2D key matches the combined
  /// and LCSS searchers at equal q, so they share cache entries.
  std::string feature_key_;

  // PR: one entry per Q-gram mean, payload = trajectory id.
  std::unique_ptr<RStarTree> rtree_;
  // PB: one entry per projected Q-gram mean, payload = trajectory id.
  std::unique_ptr<BPlusTree> btree_;
  // PS2 / PS1: flat sorted posting arrays of per-trajectory means.
  std::unique_ptr<QgramMeansTable> means_;
};

}  // namespace edr

#endif  // EDR_PRUNING_QGRAM_KNN_H_
