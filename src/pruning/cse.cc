#include "pruning/cse.h"

#include <algorithm>
#include <chrono>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/intra_query.h"

namespace edr {

double MaxTriangleViolation(const PairwiseEdrMatrix& matrix) {
  const size_t n = matrix.num_refs();
  double worst = 0.0;
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      for (size_t z = 0; z < n; ++z) {
        const double violation =
            static_cast<double>(matrix.at(x, static_cast<uint32_t>(z))) -
            static_cast<double>(matrix.at(x, static_cast<uint32_t>(y))) -
            static_cast<double>(matrix.at(y, static_cast<uint32_t>(z)));
        worst = std::max(worst, violation);
      }
    }
  }
  return worst;
}

CseSearcher::CseSearcher(const TrajectoryDataset& db, double epsilon,
                         PairwiseEdrMatrix matrix)
    : db_(db), epsilon_(epsilon), matrix_(std::move(matrix)) {
  shift_ = MaxTriangleViolation(matrix_);
}

KnnResult CseSearcher::Knn(const Trajectory& query, size_t k,
                           const KnnOptions& options) const {
  if (k == 0) return EmptyKnnResult(db_.size());
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  RecordSchedBudget(trace.get(), options);

  // Per-slot reference arrays, as in NearTriangleSearcher: any computed
  // reference distance is a valid prune input, so sharding them only
  // changes how much is pruned, never what is returned.
  const unsigned slots = ResolveIntraQueryWorkers(options);
  std::vector<std::vector<std::pair<uint32_t, double>>> proc(slots);
  for (auto& p : proc) p.reserve(matrix_.num_refs());
  // Interleaved scan: phase split derived from the summed DP wall time,
  // exactly as in NearTriangleSearcher.
  RefineLedger ledger(options);

  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    StageCounters& st = ledger.stages(slot);
    st.Bump(&StageCounters::considered);
    std::vector<std::pair<uint32_t, double>>& proc_array = proc[slot];
    double max_prune_dist = 0.0;
    for (const auto& [ref_id, ref_dist] : proc_array) {
      const double bound = ref_dist - matrix_.at(ref_id, id) - shift_;
      max_prune_dist = std::max(max_prune_dist, bound);
    }
    if (max_prune_dist > threshold) {
      st.Bump(&StageCounters::triangle_pruned);
      return false;
    }

    // Bounded refinement; a lower-bound reference distance in proc_array
    // only weakens (never unsounds) the shifted triangle prune.
    const int bound = EdrBoundFromKthDistance(threshold);
    EdrScratch& scratch = ThreadLocalEdrScratch();
    const int d = ledger.TimeDp(slot, [&] {
      return EdrDistanceBoundedWith(kernel, scratch, query, db_[id],
                                    epsilon_, bound);
    });
    ledger.CountDp(slot, scratch);
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
  SharedTopK topk(k);
  KnnResult out;
  out.neighbors = RefineInDbOrder(db_.size(), topk, options, refine,
                                  {trace.get(), scan_span.id()});
  scan_span.End();
  ledger.FinishInterleaved(&out, db_.size(), start, std::move(trace));
  return out;
}

}  // namespace edr
