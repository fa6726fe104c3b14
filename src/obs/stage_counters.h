#ifndef EDR_OBS_STAGE_COUNTERS_H_
#define EDR_OBS_STAGE_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/obs.h"

namespace edr {

/// Per-query, per-stage pruning accounting: where exactly did each
/// database trajectory drop out of the filter-and-refine pipeline? The
/// paper's pruning power (Section 5) is the one-number summary
/// `1 - dp_invoked / db_size`; these counters decompose it losslessly by
/// stage so a workload report can say *which* filter earned the pruning.
///
/// Every candidate that reaches a searcher's filter chain increments
/// `considered` and then lands in exactly one bucket — one of the stage
/// prunes, or `dp_invoked` — so for any schedule (including intra-query
/// parallel ones):
///
///   considered == qgram_pruned + histogram_pruned + triangle_pruned
///                 + dp_invoked
///   considered + not_visited == db_size
///
/// which is the conservation law the observability tests check. The two
/// `*_skipped` counters are annotations, not buckets: they say why a
/// candidate reached the DP (a cost gate skipped a test that might have
/// pruned it) and take no part in the law. Counters
/// are recorded only when kObsEnabled; in EDR_DISABLE_OBS builds the
/// fields exist but stay zero.
struct alignas(64) StageCounters {
  /// Candidates that entered the filter chain (visited by the scan).
  uint64_t considered = 0;
  /// Pruned by the Q-gram match-count threshold (Theorems 1/3) — also
  /// counts the LCSS score-cap filter and the 3-D element-match filter,
  /// which are the same bound specialized.
  uint64_t qgram_pruned = 0;
  /// Pruned by the histogram transport lower bound (Theorem 6).
  uint64_t histogram_pruned = 0;
  /// Pruned by the near-triangle / CSE reference bound (Figure 4).
  uint64_t triangle_pruned = 0;
  /// True-distance DPs started (== SearchStats::edr_computed).
  uint64_t dp_invoked = 0;
  /// DPs that early-abandoned past the k-th-distance bound (their result
  /// was a lower bound, not an exact distance).
  uint64_t dp_early_abandoned = 0;
  /// DP cells the invoked verifications ran — the work the filters failed
  /// to prune. An abandoned DP is charged only the columns it completed
  /// (EdrScratch::last_columns), not its whole |Q| x |S| table.
  uint64_t dp_cells = 0;
  /// Candidates never visited at all because a sorted scan hit its hard
  /// stop (every remaining lower bound exceeded the k-th distance).
  /// Derived as db_size - considered when a query finishes.
  uint64_t not_visited = 0;
  /// Q-gram tests the combined searcher's cost gate skipped: the
  /// candidate went on untested because, on this query, the test was
  /// costing more than the DPs it saved (LazyFilters::kCostGated).
  uint64_t qgram_skipped = 0;
  /// Near-triangle tests the cost gate skipped, as qgram_skipped.
  uint64_t triangle_skipped = 0;

  /// Increments one field iff observability is compiled in. Keeps the
  /// searchers' hot filter chains to one line per recording site, e.g.
  /// `st.Bump(&StageCounters::qgram_pruned)`.
  void Bump(uint64_t StageCounters::* field) {
    if constexpr (kObsEnabled) {
      ++(this->*field);
    } else {
      (void)field;
    }
  }

  /// Records one invoked true-distance DP that ran `rows` x `columns`
  /// cells.
  void CountDp(size_t rows, size_t columns) {
    if constexpr (kObsEnabled) {
      ++dp_invoked;
      dp_cells += static_cast<uint64_t>(rows) * static_cast<uint64_t>(columns);
    } else {
      (void)rows;
      (void)columns;
    }
  }

  /// Folds another counter set in (per-worker shards into the query
  /// total, per-query totals into a workload total).
  void Add(const StageCounters& other) {
    if constexpr (kObsEnabled) {
      considered += other.considered;
      qgram_pruned += other.qgram_pruned;
      histogram_pruned += other.histogram_pruned;
      triangle_pruned += other.triangle_pruned;
      dp_invoked += other.dp_invoked;
      dp_early_abandoned += other.dp_early_abandoned;
      dp_cells += other.dp_cells;
      not_visited += other.not_visited;
      qgram_skipped += other.qgram_skipped;
      triangle_skipped += other.triangle_skipped;
    } else {
      (void)other;
    }
  }

  /// Sets not_visited from the database size once a query's scan is over
  /// (candidates skipped by a hard stop were never counted anywhere).
  void FinalizeNotVisited(size_t db_size) {
    if constexpr (kObsEnabled) {
      const uint64_t n = static_cast<uint64_t>(db_size);
      not_visited = n >= considered ? n - considered : 0;
    } else {
      (void)db_size;
    }
  }

  /// Candidates pruned without a true distance computation; equals
  /// PruningPower() * db_size when the conservation law holds.
  uint64_t PrunedWithoutDp() const {
    return qgram_pruned + histogram_pruned + triangle_pruned + not_visited;
  }

  /// True iff every visited candidate is accounted for by exactly one
  /// bucket (trivially true when observability is compiled out: nothing
  /// is recorded, not even not_visited, so there is nothing to balance).
  bool Conserves(size_t db_size) const {
    if constexpr (!kObsEnabled) {
      (void)db_size;
      return true;
    }
    return considered == qgram_pruned + histogram_pruned + triangle_pruned +
                             dp_invoked &&
           considered + not_visited == static_cast<uint64_t>(db_size);
  }

  /// The counters as one JSON object (keys match the field names).
  std::string ToJson() const;
};

static_assert(sizeof(StageCounters) % 64 == 0,
              "whole cache lines so per-worker slots never false-share");

}  // namespace edr

#endif  // EDR_OBS_STAGE_COUNTERS_H_
