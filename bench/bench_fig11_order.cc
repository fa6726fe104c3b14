// Reproduces Figure 11: speedup ratio of the six application orders of
// the three pruning methods (H = histogram, P = mean-value Q-grams,
// N = near triangle inequality) on the NHL data set.
//
// Paper shape to reproduce: all six orders achieve the same pruning power
// (the filters are independent), but applying the cheap high-power filter
// first wins on time — H, then P, then N ("2HPN") is the fastest order,
// and orders starting with N are the slowest.

#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  const auto config = edr::bench::BenchConfig::FromArgs(argc, argv);
  const size_t count = config.full ? 5000 : 2000;
  const size_t refs = config.full ? 400 : 200;
  std::printf("Figure 11: speedup of pruning-method orders, NHL data "
              "(N=%zu)\n", count);

  edr::TrajectoryDataset db = edr::GenNhlLike(count, 30, 256, 19);
  db.NormalizeAll();
  edr::QueryEngine engine(db, db.SuggestedEpsilon());

  std::vector<edr::NamedSearcher> searchers;
  for (const auto& order : edr::AllPruneOrders()) {
    edr::CombinedOptions options;
    options.order = order;
    options.max_triangle = refs;
    // Figure 11 compares pure application orders: every order scans in
    // database order so the pruning power is identical across the six
    // permutations (the paper's observation) and only the time differs.
    options.sorted_histogram_scan = false;
    // Pruning power is a property of the chain that evaluates every
    // filter, so the cost gate stays off.
    options.lazy_filters = edr::LazyFilters::kAlways;
    searchers.push_back(engine.MakeCombined(options));
  }
  edr::bench::RunSuite("NHL", engine, searchers, config);
  return 0;
}
