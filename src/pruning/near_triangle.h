#ifndef EDR_PRUNING_NEAR_TRIANGLE_H_
#define EDR_PRUNING_NEAR_TRIANGLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "query/knn.h"

namespace edr {

struct RefineTarget;

/// Precomputed EDR distances between a prefix of the database (the
/// candidate reference trajectories) and every database trajectory.
///
/// This materializes exactly the columns of the paper's pairwise distance
/// matrix `pmatrix` that near-triangle pruning can touch: the paper picks
/// "the first maxTriangle trajectories that fill up procArray" as
/// references and pages their columns into a buffer (Section 4.2), so only
/// `num_refs * N` of the `N * N` matrix is ever needed.
class PairwiseEdrMatrix {
 public:
  /// Computes EDR(db[r], db[s]) for r < num_refs and all s. This is the
  /// offline preprocessing step; its cost is excluded from query-time
  /// measurements, as in the paper.
  static PairwiseEdrMatrix Build(const TrajectoryDataset& db, double epsilon,
                                 size_t num_refs);

  /// Multi-threaded Build: rows are distributed over `threads` workers
  /// (0 = hardware concurrency). Bitwise-identical to Build.
  static PairwiseEdrMatrix BuildParallel(const TrajectoryDataset& db,
                                         double epsilon, size_t num_refs,
                                         unsigned threads = 0);

  /// Reconstructs a matrix from raw parts (the persistence path); sizes
  /// must satisfy distances.size() == num_refs * db_size.
  static PairwiseEdrMatrix FromParts(size_t num_refs, size_t db_size,
                                     std::vector<int> distances);

  /// Row-major distance payload (num_refs x db_size), for persistence.
  const std::vector<int>& data() const { return distances_; }

  size_t num_refs() const { return num_refs_; }
  size_t db_size() const { return db_size_; }

  /// EDR distance between reference `ref` (< num_refs) and trajectory `id`.
  int at(size_t ref, uint32_t id) const {
    return distances_[ref * db_size_ + id];
  }

 private:
  size_t num_refs_ = 0;
  size_t db_size_ = 0;
  std::vector<int> distances_;
};

/// k-NN searcher using the near triangle inequality (Theorem 5):
///
///   EDR(Q, S) + EDR(S, R) + |S| >= EDR(Q, R)
///   =>  EDR(Q, S) >= EDR(Q, R) - EDR(S, R) - |S|,
///
/// a lower bound on EDR(Q, S) from the already-computed EDR(Q, R) of a
/// reference trajectory R and the precomputed EDR(S, R). The Figure 4
/// algorithm: maintain `procArray` of references with known true distances;
/// a candidate S is pruned when the maximum lower bound over references
/// exceeds the current k-th distance.
///
/// The |S| slack makes this a weak filter that can only fire when lengths
/// differ (Section 5.2 confirms ~0 power on fixed-length datasets).
class NearTriangleSearcher {
 public:
  /// `max_triangle` is the reference budget (the paper uses 400).
  NearTriangleSearcher(const TrajectoryDataset& db, double epsilon,
                       size_t max_triangle = 400);

  /// Constructs with a pre-built matrix (shared across searchers).
  NearTriangleSearcher(const TrajectoryDataset& db, double epsilon,
                       PairwiseEdrMatrix matrix);

  /// `options` shards the refinement scan over the thread pool (per-worker
  /// reference arrays); results are bit-identical for every worker count.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Range query: every trajectory within `radius` of the query, ascending
  /// by (distance, id). The k-NN scan against the fixed radius, in
  /// database order: prunes candidates whose reference-based lower bound
  /// exceeds `radius`. Sequential (default KnnOptions). Lossless.
  KnnResult Range(const Trajectory& query, int radius) const;

  const PairwiseEdrMatrix& matrix() const { return matrix_; }
  std::string name() const { return "NTR"; }

 private:
  /// The database-order filter-and-refine scan towards `target`; Knn and
  /// Range both run it.
  KnnResult Search(const Trajectory& query, const RefineTarget& target,
                   const KnnOptions& options) const;

  const TrajectoryDataset& db_;
  double epsilon_;
  PairwiseEdrMatrix matrix_;
};

}  // namespace edr

#endif  // EDR_PRUNING_NEAR_TRIANGLE_H_
