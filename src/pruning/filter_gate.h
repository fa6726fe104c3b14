#ifndef EDR_PRUNING_FILTER_GATE_H_
#define EDR_PRUNING_FILTER_GATE_H_

#include <cstddef>
#include <cstdint>

#include "core/cpu.h"
#include "distance/edr_kernel.h"

namespace edr {

/// Modeled cost, in nanoseconds, of the work the combined searcher's
/// refine loop weighs against each other: one bounded EDR DP, one lazy
/// Q-gram test and one lazy near-triangle test. Each cost is a count the
/// code already has times a static weight, with no clock reads, so every
/// gate decision is a pure function of the candidates seen and the same
/// on every run. One row per KernelLevel, fitted on a 4-core x86-64 host
/// (docs/ALGORITHMS.md section 5).
struct FilterCostWeights {
  /// A bit-parallel DP: ns per call (pattern copy, dispatch) plus, per
  /// column run, OrientationCost's column model: ns per 64-row word, per
  /// 8-row compare group and per column.
  double dp_call;
  double dp_word;
  double dp_group;
  double dp_column;
  /// A scalar-kernel DP (EdrKernel::kScalar): ns per cell run.
  double dp_cell;
  /// A Q-gram test (QgramMeansTable::CountMatches2DAtLeast): ns per call
  /// and per query mean the merge visited.
  double qgram_call;
  double qgram_mean;
  /// A near-triangle test: ns per call and per reference distance read.
  double triangle_call;
  double triangle_ref;

  /// Modeled cost of a DP that ran `rows` x `columns` cells (the shape
  /// EdrScratch::last_rows/last_columns records) with `kernel`.
  double Dp(EdrKernel kernel, size_t rows, size_t columns) const;
  double QgramTest(size_t means_visited) const {
    return qgram_call + qgram_mean * static_cast<double>(means_visited);
  }
  double TriangleTest(size_t refs_read) const {
    return triangle_call + triangle_ref * static_cast<double>(refs_read);
  }
};

/// The weight row of `level`.
const FilterCostWeights& FilterCostWeightsFor(KernelLevel level);

/// The gate rule: a lazy test pays while the DPs it avoids cost at least
/// what it costs, i.e. prune_rate x (cost of one DP) >= cost of one test.
inline bool LazyTestPays(double prune_rate, double dp_cost,
                         double test_cost) {
  return prune_rate * dp_cost >= test_cost;
}

/// The on/off state of one lazy filter for one query on one worker slot.
/// Of the candidates the filter could act on, it tests the first kWarmup,
/// then every kProbeEvery-th (so a filter switched off keeps being
/// measured), and any other one while LazyTestPays holds for the filter's
/// recent prune rate and mean test cost against the slot's recent mean DP
/// cost. The tallies halve each time they reach kWindow, so the rates
/// follow the k-th distance as it tightens over the scan instead of
/// averaging in the loose start. Skipping a test is lossless: the
/// candidate goes to the bounded DP, which computes its exact distance.
class LazyStepGate {
 public:
  static constexpr uint64_t kWarmup = 32;
  static constexpr uint64_t kProbeEvery = 16;
  static constexpr double kWindow = 2.0 * kWarmup;

  /// Whether to test the next candidate; `mean_dp_cost` < 0 means no DP
  /// has been priced yet, which keeps the test on.
  bool ShouldTest(double mean_dp_cost) {
    ++offered_;
    if (offered_ <= kWarmup || offered_ % kProbeEvery == 0) return true;
    if (mean_dp_cost < 0.0) return true;
    return LazyTestPays(pruned_ / tested_, mean_dp_cost,
                        test_cost_ / tested_);
  }

  /// Records one test: whether it pruned, and its modeled cost.
  void Record(bool pruned, double cost) {
    tested_ += 1.0;
    pruned_ += pruned ? 1.0 : 0.0;
    test_cost_ += cost;
    if (tested_ >= kWindow) {
      tested_ *= 0.5;
      pruned_ *= 0.5;
      test_cost_ *= 0.5;
    }
  }

 private:
  uint64_t offered_ = 0;
  double tested_ = 0.0;
  double pruned_ = 0.0;
  double test_cost_ = 0.0;
};

/// Both lazy gates of one worker slot plus the slot's recent mean modeled
/// cost of the DPs it ran against a finite threshold (the ones a prune
/// would have saved), halved like the gates' tallies. Each slot owns
/// whole cache lines.
struct alignas(64) LazyChainGate {
  LazyStepGate qgram;
  LazyStepGate triangle;
  double dp_cost = 0.0;
  double dps = 0.0;

  void RecordDp(double cost) {
    dp_cost += cost;
    dps += 1.0;
    if (dps >= LazyStepGate::kWindow) {
      dp_cost *= 0.5;
      dps *= 0.5;
    }
  }
  /// Recent mean modeled DP cost, or -1 before the first DP.
  double MeanDpCost() const { return dps == 0.0 ? -1.0 : dp_cost / dps; }
};

}  // namespace edr

#endif  // EDR_PRUNING_FILTER_GATE_H_
