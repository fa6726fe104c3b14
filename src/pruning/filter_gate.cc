#include "pruning/filter_gate.h"

namespace edr {

double FilterCostWeights::Dp(EdrKernel kernel, size_t rows,
                             size_t columns) const {
  const double cols = static_cast<double>(columns);
  if (kernel == EdrKernel::kScalar) {
    return dp_call + dp_cell * static_cast<double>(rows) * cols;
  }
  return dp_call +
         cols * (dp_word * static_cast<double>((rows + 63) / 64) +
                 dp_group * static_cast<double>((rows + 7) / 8) + dp_column);
}

const FilterCostWeights& FilterCostWeightsFor(KernelLevel level) {
  static const FilterCostWeights kScalarRow = {353, 6.3, 9.2, 17.2, 2.2,
                                              402, 27.6, 5.6, 17.1};
  static const FilterCostWeights kSse2Row = {379, 5.6, 5.3, 9.8, 2.3,
                                            336, 28.8, 1.7, 17.4};
  static const FilterCostWeights kAvx2Row = {359, 1.9, 2.4, 12.7, 2.2,
                                            378, 27.4, 2.2, 17.1};
  static const FilterCostWeights kAvx512Row = {359, 2.5, 1.4, 8.7, 2.3,
                                              395, 23.0, 5.8, 15.5};
  switch (level) {
    case KernelLevel::kScalar: return kScalarRow;
    case KernelLevel::kSse2: return kSse2Row;
    case KernelLevel::kAvx2: return kAvx2Row;
    case KernelLevel::kAvx512: return kAvx512Row;
    case KernelLevel::kNeon: return kSse2Row;
  }
  return kScalarRow;
}

}  // namespace edr
