#ifndef EDR_QUERY_INTRA_QUERY_H_
#define EDR_QUERY_INTRA_QUERY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "distance/edr_kernel.h"
#include "obs/stage_counters.h"
#include "obs/trace.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "query/topk.h"

namespace edr {

/// Wall seconds elapsed since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The answer of a k = 0 query, which visits nothing: no neighbors, every
/// candidate counted as not visited.
inline KnnResult EmptyKnnResult(size_t db_size) {
  KnnResult out;
  out.stats.db_size = db_size;
  out.stats.stages.FinalizeNotVisited(db_size);
  return out;
}

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
/// `sink` is the query's result set: SharedTopK for k-NN, RadiusSink for
/// range. `process(slot, id, threshold, &dist)` evaluates the searcher's
/// filter chain against `threshold` (the sink's current threshold) and, if
/// the candidate survives, computes its distance with `threshold` as the
/// early-abandon bound. It returns true iff `dist` holds the candidate's
/// *exact* distance (i.e. the computation was not abandoned); only exact
/// distances enter the result. Returns the drained, sorted result.
///
/// Every worker offers into the one sink, so for k-NN the threshold each
/// candidate is tested against is the exact k-th distance of everything
/// refined so far, whichever worker refined it — the same threshold the
/// sequential scan would hold after the same offers.
///
/// Result identity across worker counts: that threshold is the k-th
/// distance of a subset of the candidates, hence never below the final
/// k-th distance, so every true neighbor survives filtering in every
/// schedule, is refined exactly, and is offered; the shared top-k keeps
/// the k lexicographically smallest (distance, rank) pairs offered, a
/// schedule-independent set. A range sink's threshold never moves, so
/// exactly the candidates within the radius are offered.
template <typename Sink, typename ProcessFn>
std::vector<Neighbor> RefineInDbOrder(size_t n, Sink& sink,
                                      const KnnOptions& options,
                                      ProcessFn&& process,
                                      const TraceContext& tc = {}) {
  const unsigned slots = ResolveIntraQueryWorkers(options);
  ThreadPool& pool = IntraQueryPool(options);
  internal::DbOrderStream stream(n);

  auto loop = [&](size_t slot) {
    uint32_t id = 0;
    size_t rank = 0;
    while (stream.Next(&id, &rank)) {
      const double threshold = sink.Threshold();
      double dist = 0.0;
      if (!process(static_cast<unsigned>(slot), id, threshold, &dist)) {
        continue;
      }
      sink.Offer(id, dist, rank);
    }
  };
  internal::RunSlots(slots, pool, loop, tc);
  return std::move(sink).TakeSortedNeighbors();
}

/// Parallel filter-and-refine over candidates in ascending canonical
/// (key, id) order (the HSR / Q-gram / combined scan shape), with an early
/// stop: when `stop(key, threshold)` fires for the canonically next
/// candidate, every remaining candidate is prunable too (keys only grow)
/// and the whole scan halts.
///
/// Same sink contract and result-identity argument as RefineInDbOrder;
/// `stop` must be monotone in the threshold (a larger threshold never
/// stops earlier), so a stale — necessarily larger — k-NN threshold read
/// is conservative.
template <typename Key, typename Sink, typename ProcessFn, typename StopFn>
std::vector<Neighbor> RefineInKeyOrder(
    std::vector<typename StreamingOrder<Key>::Entry> entries, Sink& sink,
    const KnnOptions& options, ProcessFn&& process, StopFn&& stop,
    const TraceContext& tc = {}) {
  const unsigned slots = ResolveIntraQueryWorkers(options);
  ThreadPool& pool = IntraQueryPool(options);
  internal::KeyOrderStream<Key> stream(
      StreamingOrder<Key>(std::move(entries)));

  auto loop = [&](size_t slot) {
    typename StreamingOrder<Key>::Entry entry;
    size_t rank = 0;
    while (stream.Next(&entry, &rank)) {
      const double threshold = sink.Threshold();
      if (stop(entry.key, threshold)) {
        stream.Stop();
        break;
      }
      double dist = 0.0;
      if (!process(static_cast<unsigned>(slot), entry.id, threshold,
                   &dist)) {
        continue;
      }
      sink.Offer(entry.id, dist, rank);
    }
  };
  internal::RunSlots(slots, pool, loop, tc);
  return std::move(sink).TakeSortedNeighbors();
}

/// Runs `drive(sink)` — a call of one of the drivers above — against the
/// sink that realizes `target`: SharedTopK for k-NN, RadiusSink for range.
/// This is how k-NN and range queries share each searcher's one filter
/// chain and refine pass.
template <typename DriveFn>
std::vector<Neighbor> RefineToTarget(const RefineTarget& target,
                                     DriveFn&& drive) {
  if (target.range) {
    RadiusSink sink(target.radius);
    return drive(sink);
  }
  SharedTopK sink(target.k);
  return drive(sink);
}

/// Per-query refine bookkeeping shared by every searcher: one DP count,
/// StageCounters shard and DP-time accumulator per worker slot (each slot
/// on its own cache lines, written only by the worker running it), and the
/// epilogue that folds them into the query's stats.
class RefineLedger {
 public:
  explicit RefineLedger(const KnnOptions& options)
      : slots_(ResolveIntraQueryWorkers(options)) {}

  StageCounters& stages(unsigned slot) { return slots_[slot].stages; }

  /// Records one true-distance DP that ran `rows` x `columns` cells.
  void CountDp(unsigned slot, size_t rows, size_t columns) {
    ++slots_[slot].computed;
    slots_[slot].stages.CountDp(rows, columns);
  }

  /// Records the EDR DP the last call on `scratch` ran, charged with the
  /// cells the kernel actually ran (an abandoned DP stops early).
  void CountDp(unsigned slot, const EdrScratch& scratch) {
    CountDp(slot, scratch.last_rows(), scratch.last_columns());
  }

  /// Returns `dp()`, adding its wall time to the slot when observability
  /// is compiled in — the refine share of searchers whose filter and
  /// refine interleave (see FinishInterleaved).
  template <typename DpFn>
  int TimeDp(unsigned slot, DpFn&& dp) {
    if constexpr (kObsEnabled) {
      const auto start = std::chrono::steady_clock::now();
      const int d = dp();
      slots_[slot].dp_seconds += SecondsSince(start);
      return d;
    } else {
      return dp();
    }
  }

  /// Closes the query: sums the slots into `out->stats`, derives
  /// not_visited, sets the filter/refine split (refine runs from
  /// `refine_start` to now; elapsed is their sum), attaches the trace and
  /// folds the query into the metrics registry.
  void Finish(KnnResult* out, size_t db_size, double filter_seconds,
              std::chrono::steady_clock::time_point refine_start,
              std::shared_ptr<QueryTrace> trace) const {
    Close(out, db_size, filter_seconds, SecondsSince(refine_start),
          std::move(trace));
  }

  /// Finish for searchers whose filter and refine interleave (NTR, CSE):
  /// of the time since `start`, refine is the summed DP time, also
  /// recorded as a "dp" aggregate on the trace, and filter the rest.
  /// Without observability the split falls back to filter = 0,
  /// refine = elapsed.
  void FinishInterleaved(KnnResult* out, size_t db_size,
                         std::chrono::steady_clock::time_point start,
                         std::shared_ptr<QueryTrace> trace) const {
    const double elapsed_seconds = SecondsSince(start);
    double refine_seconds = elapsed_seconds;
    if constexpr (kObsEnabled) {
      double dp_seconds = 0.0;
      uint64_t dps = 0;
      for (const Slot& slot : slots_) {
        dp_seconds += slot.dp_seconds;
        dps += slot.stages.dp_invoked;
      }
      if (trace != nullptr) trace->AddAggregate("dp", dp_seconds, dps);
      refine_seconds = std::min(dp_seconds, elapsed_seconds);
    }
    Close(out, db_size, elapsed_seconds - refine_seconds, refine_seconds,
          std::move(trace));
  }

 private:
  struct Slot {
    StageCounters stages;  // alignas(64): each slot starts a cache line
    size_t computed = 0;
    double dp_seconds = 0.0;
  };
  void Close(KnnResult* out, size_t db_size, double filter_seconds,
             double refine_seconds, std::shared_ptr<QueryTrace> trace) const {
    SearchStats& stats = out->stats;
    stats.db_size = db_size;
    for (const Slot& slot : slots_) {
      stats.edr_computed += slot.computed;
      stats.stages.Add(slot.stages);
    }
    stats.stages.FinalizeNotVisited(db_size);
    stats.filter_seconds = filter_seconds;
    stats.refine_seconds = refine_seconds;
    stats.elapsed_seconds = filter_seconds + refine_seconds;
    out->trace = std::move(trace);
    RecordQueryMetrics(stats);
  }

  std::vector<Slot> slots_;
};

}  // namespace edr

#endif  // EDR_QUERY_INTRA_QUERY_H_
