#ifndef EDR_QUERY_INTRA_QUERY_H_
#define EDR_QUERY_INTRA_QUERY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "query/topk.h"

namespace edr {

/// Resolves the pool an intra-query job runs on (Global unless overridden).
inline ThreadPool& IntraQueryPool(const KnnOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::Global();
}

/// Number of participants (worker slots) a Knn call will use; 0 expands to
/// the whole pool plus the calling thread.
inline unsigned ResolveIntraQueryWorkers(const KnnOptions& options) {
  if (options.intra_query_workers != 0) return options.intra_query_workers;
  return IntraQueryPool(options).num_workers() + 1;
}

/// Records the worker budget this query was granted as a `sched` node on
/// the query's trace (count = resolved participant count, zero duration —
/// the budget is a decision, not a phase). Every searcher calls this at
/// the top of Knn so traces show the schedule the batch scheduler chose.
inline void RecordSchedBudget(QueryTrace* trace, const KnnOptions& options) {
  if constexpr (kObsEnabled) {
    if (trace != nullptr) {
      trace->AddAggregate("sched", 0.0, ResolveIntraQueryWorkers(options));
    }
  } else {
    (void)trace;
    (void)options;
  }
}

/// fn(i) for every i in [0, n), sharded per the intra-query options; the
/// sequential setting (1 worker) runs a plain loop without touching the
/// pool. Callers must write results by index for deterministic output.
template <typename Fn>
void IntraQueryParallelFor(size_t n, const KnnOptions& options, Fn&& fn) {
  const unsigned workers = ResolveIntraQueryWorkers(options);
  if (workers <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  IntraQueryPool(options).ParallelFor(n, fn, workers);
}

namespace internal {

/// Hands out ids 0..n-1 in database order via an atomic cursor. The rank
/// of a candidate is its id — database order *is* the canonical order.
class DbOrderStream {
 public:
  explicit DbOrderStream(size_t n) : n_(n) {}

  bool Next(uint32_t* id, size_t* rank) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return false;
    *id = static_cast<uint32_t>(i);
    *rank = i;
    return true;
  }

 private:
  size_t n_;
  std::atomic<size_t> next_{0};
};

/// Hands out candidates in ascending canonical (key, id) order from a
/// StreamingOrder, serialized by a mutex (the selection work per candidate
/// is tiny next to one DP refinement, so contention is negligible). Once
/// stopped, no further candidates are issued — the streaming analogue of
/// the sequential sorted-scan `break`.
template <typename Key>
class KeyOrderStream {
 public:
  explicit KeyOrderStream(StreamingOrder<Key> order)
      : order_(std::move(order)) {}

  bool Next(typename StreamingOrder<Key>::Entry* entry, size_t* rank) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return false;
    if (!order_.Next(entry)) return false;
    *rank = rank_++;
    return true;
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }

 private:
  std::mutex mu_;
  StreamingOrder<Key> order_;
  size_t rank_ = 0;
  bool stopped_ = false;
};

/// Runs `loop(slot)` on `slots` participants of the pool (or inline when
/// one slot suffices). Each slot's run is recorded as a "refine_worker"
/// span under `tc` so the per-query trace shows the worker shard
/// breakdown.
template <typename LoopFn>
void RunSlots(unsigned slots, ThreadPool& pool, LoopFn&& loop,
              const TraceContext& tc = {}) {
  auto traced = [&](size_t slot) {
    TraceSpan span(tc.trace, "refine_worker", tc.parent);
    loop(slot);
  };
  if (slots <= 1) {
    traced(size_t{0});
  } else {
    pool.ParallelFor(slots, traced, slots);
  }
}

}  // namespace internal

/// Parallel filter-and-refine over candidates in database order (the HSE /
/// near-triangle / CSE scan shape: no candidate ordering, no early stop).
///
/// `process(slot, id, threshold, &dist)` evaluates the searcher's filter
/// chain against `threshold` and, if the candidate survives, computes its
/// distance with `threshold` as the early-abandon bound. It returns true
/// iff `dist` holds the candidate's *exact* distance (i.e. the computation
/// was not abandoned); only exact distances enter the result.
///
/// Every worker offers into one SharedTopK, so the threshold each
/// candidate is tested against is the exact k-th distance of everything
/// refined so far, whichever worker refined it — the same threshold the
/// sequential scan would hold after the same offers.
///
/// Result identity across worker counts: that threshold is the k-th
/// distance of a subset of the candidates, hence never below the final
/// k-th distance, so every true neighbor survives filtering in every
/// schedule, is refined exactly, and is offered; the shared top-k keeps
/// the k lexicographically smallest (distance, rank) pairs offered, a
/// schedule-independent set.
template <typename ProcessFn>
std::vector<Neighbor> RefineInDbOrder(size_t n, size_t k,
                                      const KnnOptions& options,
                                      ProcessFn&& process,
                                      const TraceContext& tc = {}) {
  const unsigned slots = ResolveIntraQueryWorkers(options);
  ThreadPool& pool = IntraQueryPool(options);
  internal::DbOrderStream stream(n);
  SharedTopK topk(k);

  auto loop = [&](size_t slot) {
    uint32_t id = 0;
    size_t rank = 0;
    while (stream.Next(&id, &rank)) {
      const double threshold = topk.Threshold();
      double dist = 0.0;
      if (!process(static_cast<unsigned>(slot), id, threshold, &dist)) {
        continue;
      }
      topk.Offer(id, dist, rank);
    }
  };
  internal::RunSlots(slots, pool, loop, tc);
  return std::move(topk).TakeSortedNeighbors();
}

/// Parallel filter-and-refine over candidates in ascending canonical
/// (key, id) order (the HSR / Q-gram / combined scan shape), with an early
/// stop: when `stop(key, threshold)` fires for the canonically next
/// candidate, every remaining candidate is prunable too (keys only grow)
/// and the whole scan halts.
///
/// Same result-identity argument as RefineInDbOrder; `stop` must be
/// monotone in the threshold (a larger threshold never stops earlier), so
/// a stale — necessarily larger — threshold read is conservative.
template <typename Key, typename ProcessFn, typename StopFn>
std::vector<Neighbor> RefineInKeyOrder(
    std::vector<typename StreamingOrder<Key>::Entry> entries, size_t k,
    const KnnOptions& options, ProcessFn&& process, StopFn&& stop,
    const TraceContext& tc = {}) {
  const unsigned slots = ResolveIntraQueryWorkers(options);
  ThreadPool& pool = IntraQueryPool(options);
  internal::KeyOrderStream<Key> stream(
      StreamingOrder<Key>(std::move(entries)));
  SharedTopK topk(k);

  auto loop = [&](size_t slot) {
    typename StreamingOrder<Key>::Entry entry;
    size_t rank = 0;
    while (stream.Next(&entry, &rank)) {
      const double threshold = topk.Threshold();
      if (stop(entry.key, threshold)) {
        stream.Stop();
        break;
      }
      double dist = 0.0;
      if (!process(static_cast<unsigned>(slot), entry.id, threshold,
                   &dist)) {
        continue;
      }
      topk.Offer(entry.id, dist, rank);
    }
  };
  internal::RunSlots(slots, pool, loop, tc);
  return std::move(topk).TakeSortedNeighbors();
}

}  // namespace edr

#endif  // EDR_QUERY_INTRA_QUERY_H_
