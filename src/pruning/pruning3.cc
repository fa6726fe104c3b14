#include "pruning/pruning3.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "distance/distance3.h"
#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/topk.h"

namespace edr {

namespace {

// 21 bits per quantized coordinate, biased to stay positive; leaves
// headroom for the +/-1 neighbor offsets without component underflow.
constexpr int64_t kBias = 1 << 20;
constexpr int64_t kCoordMax = (1 << 21) - 2;
constexpr int kShiftY = 21;
constexpr int kShiftX = 42;

int64_t PackCell(int64_t ix, int64_t iy, int64_t iz) {
  return (ix << kShiftX) | (iy << kShiftY) | iz;
}

}  // namespace

KnnResult SequentialScanKnn3(const std::vector<Trajectory3>& db,
                             const Trajectory3& query, size_t k,
                             double epsilon) {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  KnnResultList result(k);
  StageCounters stages;
  for (uint32_t i = 0; i < db.size(); ++i) {
    result.Offer(i, static_cast<double>(EdrDistanceWith(
                        kernel, scratch, query, db[i], epsilon)));
    stages.Bump(&StageCounters::considered);
    stages.CountDp(scratch.last_rows(), scratch.last_columns());
  }
  const auto stop = std::chrono::steady_clock::now();
  KnnResult out;
  out.neighbors = std::move(result).TakeNeighbors();
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

Knn3Searcher::Knn3Searcher(const std::vector<Trajectory3>& db,
                           double epsilon)
    : db_(db), epsilon_(std::max(epsilon, 1e-12)) {
  // Grid origin: one cell of slack below the data minimum in every
  // dimension (elements within epsilon of the range stay in-grid).
  Point3 lo{0.0, 0.0, 0.0};
  bool first = true;
  for (const Trajectory3& t : db_) {
    for (const Point3& p : t) {
      if (first) {
        lo = p;
        first = false;
      } else {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        lo.z = std::min(lo.z, p.z);
      }
    }
  }
  grid_min_ = {lo.x - epsilon_, lo.y - epsilon_, lo.z - epsilon_};

  histograms_.reserve(db_.size());
  sorted_elements_.reserve(db_.size());
  for (const Trajectory3& t : db_) {
    histograms_.push_back(BuildHistogram(t));
    std::vector<Point3> elements = t.points();
    std::sort(elements.begin(), elements.end(),
              [](const Point3& a, const Point3& b) {
                if (a.x != b.x) return a.x < b.x;
                if (a.y != b.y) return a.y < b.y;
                return a.z < b.z;
              });
    sorted_elements_.push_back(std::move(elements));
  }
}

int64_t Knn3Searcher::CellKey(const Point3& p) const {
  // Clamped in the double domain before the cast: a far-out coordinate
  // (say 1e300) has a cell index no int64_t holds, and casting it, or a
  // NaN, is undefined. NaN fails `q >= 1` and lands on cell 1.
  const auto quantize = [this](double v, double origin) {
    const double q =
        std::floor((v - origin) / epsilon_) + static_cast<double>(kBias);
    return q >= 1.0 ? static_cast<int64_t>(
                          std::min(q, static_cast<double>(kCoordMax)))
                    : int64_t{1};
  };
  return PackCell(quantize(p.x, grid_min_.x), quantize(p.y, grid_min_.y),
                  quantize(p.z, grid_min_.z));
}

Knn3Searcher::SparseHistogram Knn3Searcher::BuildHistogram(
    const Trajectory3& t) const {
  SparseHistogram h;
  h.total = static_cast<int>(t.size());
  h.bins.reserve(t.size() * 2);
  for (const Point3& p : t) ++h.bins[CellKey(p)];
  return h;
}

int Knn3Searcher::TransportBound(const SparseHistogram& a,
                                 const SparseHistogram& b) const {
  // One side of the linear transport upper bound: every cell of `from`
  // ships at most min(its mass, `to` mass within the 3x3x3 neighborhood).
  const auto side = [](const SparseHistogram& from,
                       const SparseHistogram& to) {
    int bound = 0;
    for (const auto& [key, count] : from.bins) {
      int reachable = 0;
      for (int64_t dx = -1; dx <= 1; ++dx) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          for (int64_t dz = -1; dz <= 1; ++dz) {
            const auto it = to.bins.find(
                key + (dx << kShiftX) + (dy << kShiftY) + dz);
            if (it != to.bins.end()) reachable += it->second;
          }
        }
      }
      bound += std::min(count, reachable);
    }
    return bound;
  };
  const int transport = std::min(side(a, b), side(b, a));
  return std::max(a.total, b.total) - transport;
}

int Knn3Searcher::HistogramLowerBound(const Trajectory3& query,
                                      uint32_t id) const {
  return TransportBound(BuildHistogram(query), histograms_[id]);
}

size_t Knn3Searcher::MatchCount(const Trajectory3& query,
                                uint32_t id) const {
  const std::vector<Point3>& data = sorted_elements_[id];
  size_t count = 0;
  for (const Point3& q : query) {
    // Binary search the x-window, then scan for a full 3-D match.
    const auto begin = std::lower_bound(
        data.begin(), data.end(), q.x - epsilon_,
        [](const Point3& p, double x) { return p.x < x; });
    for (auto it = begin; it != data.end() && it->x <= q.x + epsilon_;
         ++it) {
      if (std::fabs(it->y - q.y) <= epsilon_ &&
          std::fabs(it->z - q.z) <= epsilon_) {
        ++count;
        break;
      }
    }
  }
  return count;
}

KnnResult Knn3Searcher::Knn(const Trajectory3& query, size_t k) const {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  TraceSpan sweep_span(trace.get(), "bound_sweep");
  const SparseHistogram qh = BuildHistogram(query);

  // HSR strategy: every histogram bound up front, ascending order, hard
  // stop at the first bound above the k-th distance. The hard stop
  // usually fires within the first few hundred candidates, so stream the
  // ascending order incrementally instead of fully sorting all n bounds.
  std::vector<int> bounds(db_.size());
  std::vector<StreamingOrder<int>::Entry> entries(db_.size());
  for (uint32_t i = 0; i < db_.size(); ++i) {
    bounds[i] = TransportBound(qh, histograms_[i]);
    entries[i] = {bounds[i], i};
  }
  StreamingOrder<int> order(std::move(entries));
  sweep_span.End();
  const auto filter_done = std::chrono::steady_clock::now();

  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  TraceSpan refine_span(trace.get(), "refine");
  KnnResultList result(k);
  size_t computed = 0;
  StageCounters stages;
  StreamingOrder<int>::Entry entry;
  while (order.Next(&entry)) {
    const uint32_t id = entry.id;
    const double best = result.KthDistance();
    // Hard stop before the candidate is charged: it and everything after
    // it count as not_visited.
    if (static_cast<double>(bounds[id]) > best) break;
    stages.Bump(&StageCounters::considered);

    // Element-match count bound (Theorem 1 with q = 1, three dimensions):
    // EDR <= bestSoFar requires at least max(m, n) - bestSoFar matches.
    if (!std::isinf(best)) {
      const long threshold =
          static_cast<long>(std::max(query.size(), db_[id].size())) -
          static_cast<long>(best);
      if (threshold > 0 &&
          static_cast<long>(MatchCount(query, id)) < threshold) {
        stages.Bump(&StageCounters::qgram_pruned);
        continue;
      }
    }

    const int dp_bound = EdrBoundFromKthDistance(best);
    const double dist = static_cast<double>(EdrDistanceBoundedWith(
        kernel, scratch, query, db_[id], epsilon_, dp_bound));
    ++computed;
    stages.CountDp(scratch.last_rows(), scratch.last_columns());
    if (dist > static_cast<double>(dp_bound)) {
      stages.Bump(&StageCounters::dp_early_abandoned);
    }
    result.Offer(id, dist);
  }
  refine_span.End();

  const auto stop = std::chrono::steady_clock::now();
  KnnResult out;
  out.neighbors = std::move(result).TakeNeighbors();
  out.stats.db_size = db_.size();
  out.stats.edr_computed = computed;
  stages.FinalizeNotVisited(db_.size());
  out.stats.stages = stages;
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  out.stats.filter_seconds =
      std::chrono::duration<double>(filter_done - start).count();
  out.stats.refine_seconds =
      std::chrono::duration<double>(stop - filter_done).count();
  out.trace = std::move(trace);
  RecordQueryMetrics(out.stats);
  return out;
}

}  // namespace edr
