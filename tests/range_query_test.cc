// Lossless range queries (the Theorem 1 native query form) across every
// pruning searcher, verified against the sequential-scan range query.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "pruning/combined.h"
#include "pruning/histogram_knn.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram_knn.h"
#include "query/knn.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

bool SameRangeResult(const KnnResult& expected, const KnnResult& actual) {
  if (expected.neighbors.size() != actual.neighbors.size()) return false;
  for (size_t i = 0; i < expected.neighbors.size(); ++i) {
    if (!(expected.neighbors[i] == actual.neighbors[i])) return false;
  }
  return true;
}

TEST(SequentialRangeTest, ReturnsExactlyTheBall) {
  const TrajectoryDataset db = testutil::SmallDataset(201, 40, 8, 40);
  const Trajectory query = db[7];
  const KnnResult r = SequentialScanRange(db, query, 10, kEps);
  ASSERT_FALSE(r.neighbors.empty());
  // Self at distance 0 is first.
  EXPECT_EQ(r.neighbors[0].id, 7u);
  EXPECT_EQ(r.neighbors[0].distance, 0.0);
  for (const Neighbor& n : r.neighbors) {
    EXPECT_LE(n.distance, 10.0);
  }
  // Ascending order.
  for (size_t i = 1; i < r.neighbors.size(); ++i) {
    EXPECT_LE(r.neighbors[i - 1].distance, r.neighbors[i].distance);
  }
}

TEST(SequentialRangeTest, ZeroRadiusFindsExactMatches) {
  TrajectoryDataset db = testutil::SmallDataset(202, 10);
  db.Add(db[3]);  // An exact duplicate.
  const KnnResult r = SequentialScanRange(db, db[3], 0, kEps);
  EXPECT_GE(r.neighbors.size(), 2u);
  for (const Neighbor& n : r.neighbors) EXPECT_EQ(n.distance, 0.0);
}

class RangeLosslessTest : public ::testing::TestWithParam<int> {};

TEST_P(RangeLosslessTest, AllSearchersMatchSequentialScan) {
  const int radius = GetParam();
  const TrajectoryDataset db = testutil::SmallDataset(203, 80, 8, 60);

  const QgramKnnSearcher qgram_ps2(db, kEps, 1, QgramVariant::kMerge2D);
  const QgramKnnSearcher qgram_ps1(db, kEps, 1, QgramVariant::kMerge1D);
  const QgramKnnSearcher qgram_pr(db, kEps, 2, QgramVariant::kRtree2D);
  const QgramKnnSearcher qgram_pb(db, kEps, 2, QgramVariant::kBtree1D);
  const HistogramKnnSearcher hist2d(db, kEps, HistogramTable::Kind::k2D, 1,
                                    HistogramScan::kSorted);
  const HistogramKnnSearcher hist1d(db, kEps, HistogramTable::Kind::k1D, 1,
                                    HistogramScan::kSequential);
  const NearTriangleSearcher ntr(db, kEps, 20);
  CombinedOptions combo;
  combo.max_triangle = 20;
  const CombinedKnnSearcher combined(db, kEps, combo);
  combo.histogram_kind = HistogramTable::Kind::k1D;
  const CombinedKnnSearcher combined_1d(db, kEps, combo);
  combo.histogram_kind = HistogramTable::Kind::k2D;
  combo.order = {PruneStep::kNearTriangle, PruneStep::kQgram,
                 PruneStep::kHistogram};
  const CombinedKnnSearcher combined_nph(db, kEps, combo);
  combo.order = {PruneStep::kHistogram, PruneStep::kQgram,
                 PruneStep::kNearTriangle};
  combo.sorted_histogram_scan = false;
  const CombinedKnnSearcher combined_seq(db, kEps, combo);

  const auto range_of = [radius](const auto& searcher) {
    return std::function<KnnResult(const Trajectory&)>(
        [&searcher, radius](const Trajectory& q) {
          return searcher.Range(q, radius);
        });
  };
  const std::vector<
      std::pair<std::string, std::function<KnnResult(const Trajectory&)>>>
      searchers = {
          {"PS2", range_of(qgram_ps2)},      {"PS1", range_of(qgram_ps1)},
          {"PR", range_of(qgram_pr)},        {"PB", range_of(qgram_pb)},
          {"2HE", range_of(hist2d)},         {"1HE", range_of(hist1d)},
          {"NTR", range_of(ntr)},            {"2HPN", range_of(combined)},
          {"1HPN", range_of(combined_1d)},   {"2NPH", range_of(combined_nph)},
          {"2HPN-seq", range_of(combined_seq)},
      };

  for (const Trajectory& query : testutil::MakeQueries(db, 204, 3)) {
    const KnnResult expected = SequentialScanRange(db, query, radius, kEps);
    for (const auto& [label, range] : searchers) {
      const KnnResult actual = range(query);
      EXPECT_TRUE(SameRangeResult(expected, actual))
          << label << " radius=" << radius;
      EXPECT_TRUE(actual.stats.stages.Conserves(db.size()))
          << label << " radius=" << radius;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, RangeLosslessTest,
                         ::testing::Values(0, 2, 5, 12, 30, 100, -1, 1000));

TEST(RangeTest, PruningHappensForSmallRadii) {
  const TrajectoryDataset db = testutil::SmallDataset(205, 100, 8, 60);
  CombinedOptions combo;
  combo.max_triangle = 20;
  const CombinedKnnSearcher combined(db, kEps, combo);
  const KnnResult tight = combined.Range(db[5], 2);
  EXPECT_LT(tight.stats.edr_computed, db.size());
}

TEST(RangeTest, HugeRadiusReturnsEverything) {
  const TrajectoryDataset db = testutil::SmallDataset(206, 25, 8, 40);
  const HistogramKnnSearcher hist(db, kEps, HistogramTable::Kind::k2D, 1,
                                  HistogramScan::kSorted);
  const KnnResult all = hist.Range(db[0], 1000);
  EXPECT_EQ(all.neighbors.size(), db.size());
}

}  // namespace
}  // namespace edr
