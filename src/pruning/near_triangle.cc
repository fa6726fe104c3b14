#include "pruning/near_triangle.h"

#include <algorithm>
#include <chrono>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/intra_query.h"
#include "query/thread_pool.h"
#include "query/topk.h"

namespace edr {

PairwiseEdrMatrix PairwiseEdrMatrix::Build(const TrajectoryDataset& db,
                                           double epsilon, size_t num_refs) {
  PairwiseEdrMatrix m;
  m.num_refs_ = std::min(num_refs, db.size());
  m.db_size_ = db.size();
  m.distances_.assign(m.num_refs_ * m.db_size_, 0);
  // Matrix entries feed the near-triangle prune bound in both directions,
  // so they must be exact — no early abandoning here, only the fast kernel.
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  for (size_t r = 0; r < m.num_refs_; ++r) {
    for (size_t s = 0; s < m.db_size_; ++s) {
      if (s < r) {
        // EDR is symmetric; reuse the transposed entry.
        m.distances_[r * m.db_size_ + s] = m.distances_[s * m.db_size_ + r];
      } else if (s == r) {
        m.distances_[r * m.db_size_ + s] = 0;
      } else {
        m.distances_[r * m.db_size_ + s] =
            EdrDistanceWith(kernel, scratch, db[r], db[s], epsilon);
      }
    }
  }
  return m;
}

PairwiseEdrMatrix PairwiseEdrMatrix::BuildParallel(const TrajectoryDataset& db,
                                                   double epsilon,
                                                   size_t num_refs,
                                                   unsigned threads) {
  PairwiseEdrMatrix m;
  m.num_refs_ = std::min(num_refs, db.size());
  m.db_size_ = db.size();
  m.distances_.assign(m.num_refs_ * m.db_size_, 0);
  if (m.num_refs_ == 0) return m;

  // Each pool item fills one whole row; since s >= r entries are computed
  // directly (no transposed reuse across rows), results are identical to
  // the sequential Build. The persistent pool workers keep their
  // ThreadLocalEdrScratch buffers warm across rows and across builds.
  const EdrKernel kernel = DefaultEdrKernel();
  ThreadPool::Global().ParallelFor(
      m.num_refs_,
      [&](size_t r) {
        EdrScratch& scratch = ThreadLocalEdrScratch();
        for (size_t s = 0; s < m.db_size_; ++s) {
          m.distances_[r * m.db_size_ + s] =
              s == r ? 0
                     : EdrDistanceWith(kernel, scratch, db[r], db[s],
                                       epsilon);
        }
      },
      threads);
  return m;
}

PairwiseEdrMatrix PairwiseEdrMatrix::FromParts(size_t num_refs,
                                               size_t db_size,
                                               std::vector<int> distances) {
  PairwiseEdrMatrix m;
  m.num_refs_ = num_refs;
  m.db_size_ = db_size;
  m.distances_ = std::move(distances);
  return m;
}

NearTriangleSearcher::NearTriangleSearcher(const TrajectoryDataset& db,
                                           double epsilon,
                                           size_t max_triangle)
    : db_(db),
      epsilon_(epsilon),
      matrix_(PairwiseEdrMatrix::Build(db, epsilon, max_triangle)) {}

NearTriangleSearcher::NearTriangleSearcher(const TrajectoryDataset& db,
                                           double epsilon,
                                           PairwiseEdrMatrix matrix)
    : db_(db), epsilon_(epsilon), matrix_(std::move(matrix)) {}

KnnResult NearTriangleSearcher::Knn(const Trajectory& query, size_t k,
                                    const KnnOptions& options) const {
  if (k == 0) return EmptyKnnResult(db_.size());
  return Search(query, RefineTarget::Nearest(k), options);
}

KnnResult NearTriangleSearcher::Range(const Trajectory& query,
                                      int radius) const {
  return Search(query, RefineTarget::Within(radius), KnnOptions{});
}

KnnResult NearTriangleSearcher::Search(const Trajectory& query,
                                       const RefineTarget& target,
                                       const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  RecordSchedBudget(trace.get(), options);

  // procArray: references (ids < num_refs) whose distance to the query has
  // been computed, with that distance. A bounded-refinement value may be a
  // lower bound on EDR(Q, ref); substituting it into the Figure 4 prune
  // bound only shrinks the bound, so pruning stays lossless (it just
  // prunes a little less than with the exact reference distance). Each
  // worker slot accumulates its own array — a reference distance is a
  // valid prune input regardless of which candidates it is applied to, so
  // per-slot arrays keep pruning sound while the (distance, rank) top-k
  // selection keeps results schedule-independent.
  const unsigned slots = ResolveIntraQueryWorkers(options);
  std::vector<std::vector<std::pair<uint32_t, double>>> proc(slots);
  for (auto& p : proc) p.reserve(matrix_.num_refs());
  // Filter and refinement interleave in this scan, so the ledger derives
  // the phase split from the per-slot DP wall time.
  RefineLedger ledger(options);

  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    const Trajectory& s = db_[id];
    StageCounters& st = ledger.stages(slot);
    st.Bump(&StageCounters::considered);
    // Lower-bound EDR(Q, S) via every reference with a known distance
    // (Figure 4, lines 2-4).
    std::vector<std::pair<uint32_t, double>>& proc_array = proc[slot];
    double max_prune_dist = 0.0;
    for (const auto& [ref_id, ref_dist] : proc_array) {
      const double bound = ref_dist - matrix_.at(ref_id, id) -
                           static_cast<double>(s.size());
      max_prune_dist = std::max(max_prune_dist, bound);
    }
    if (max_prune_dist > threshold) {  // No false dismissal.
      st.Bump(&StageCounters::triangle_pruned);
      return false;
    }

    const int bound = EdrBoundFromKthDistance(threshold);
    const int d = ledger.TimeDp(slot, [&] {
      return EdrDistanceBoundedWith(kernel, ThreadLocalEdrScratch(), query,
                                    s, epsilon_, bound);
    });
    ledger.CountDp(slot, query.size(), s.size());
    if (id < matrix_.num_refs() &&
        proc_array.size() < matrix_.num_refs()) {
      proc_array.emplace_back(id, static_cast<double>(d));
    }
    if (d > bound) {
      st.Bump(&StageCounters::dp_early_abandoned);
      return false;
    }
    *dist = static_cast<double>(d);
    return true;
  };
  TraceSpan scan_span(trace.get(), "scan");
  KnnResult out;
  out.neighbors = RefineToTarget(target, [&](auto& sink) {
    return RefineInDbOrder(db_.size(), sink, options, refine,
                           {trace.get(), scan_span.id()});
  });
  scan_span.End();
  ledger.FinishInterleaved(&out, db_.size(), start, std::move(trace));
  return out;
}

}  // namespace edr
