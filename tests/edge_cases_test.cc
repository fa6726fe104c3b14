// Degenerate-input robustness across the stack: empty databases, empty
// queries, k = 0, single-element trajectories, duplicate-heavy data and
// coordinates far outside the data's range.

#include <gtest/gtest.h>

#include "data/simplify.h"
#include "query/engine.h"
#include "query/subtrajectory.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(EdgeCaseTest, EmptyDatabase) {
  TrajectoryDataset db;
  QueryEngine engine(db, kEps);
  Trajectory query({{0.0, 0.0}});
  EXPECT_TRUE(engine.SeqScan(query, 5).neighbors.empty());
  EXPECT_TRUE(engine.MakeQgram(QgramVariant::kMerge2D, 1)
                  .search(query, 5)
                  .neighbors.empty());
  EXPECT_TRUE(engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                                   HistogramScan::kSorted)
                  .search(query, 5)
                  .neighbors.empty());
  EXPECT_TRUE(engine.MakeNearTriangle(5).search(query, 5).neighbors.empty());
}

TEST(EdgeCaseTest, EmptyQueryAgainstRealDatabase) {
  const TrajectoryDataset db = testutil::SmallDataset(7001, 20, 3, 20);
  QueryEngine engine(db, kEps);
  const Trajectory empty;
  // EDR(empty, S) = |S| (Definition 2 base case): nearest = shortest.
  const KnnResult expected = engine.SeqScan(empty, 5);
  ASSERT_EQ(expected.neighbors.size(), 5u);
  for (const NamedSearcher& s :
       {engine.MakeQgram(QgramVariant::kMerge2D, 1),
        engine.MakeHistogram(HistogramTable::Kind::k1D, 1,
                             HistogramScan::kSorted),
        engine.MakeNearTriangle(5)}) {
    EXPECT_TRUE(SameKnnDistances(expected, s.search(empty, 5))) << s.name;
  }
}

TEST(EdgeCaseTest, KZeroReturnsNothing) {
  const TrajectoryDataset db = testutil::SmallDataset(7002, 10);
  QueryEngine engine(db, kEps);
  EXPECT_TRUE(engine.SeqScan(db[0], 0).neighbors.empty());
  CombinedOptions combo;
  combo.max_triangle = 3;
  EXPECT_TRUE(engine.Combined(combo).Knn(db[0], 0).neighbors.empty());
}

// Finite query coordinates whose histogram bin offset no int can hold
// (1e300 over a bin of ~0.25) land in the edge bins, so the histogram
// bound stays sound: HSR and 2HPN k-NN and 2HPN / HSR Range all return the
// sequential-scan answer.
TEST(EdgeCaseTest, FarOutOfRangeQueryCoordinatesStayLossless) {
  const TrajectoryDataset db = testutil::SmallDataset(7010, 40, 5, 30);
  QueryEngine engine(db, kEps);
  const HistogramKnnSearcher& hsr = engine.Histogram(
      HistogramTable::Kind::k2D, 1, HistogramScan::kSorted);
  CombinedOptions combo;
  combo.max_triangle = 10;
  const CombinedKnnSearcher& combined = engine.Combined(combo);

  std::vector<Trajectory> queries;
  queries.push_back(Trajectory({{1e300, -1e300}, {-1e300, 1e300}}));
  queries.push_back(Trajectory({{1e20, 1e20}, {-1e20, 0.5}, {0.5, -1e20}}));
  // A database trajectory with far-out points spliced in.
  Trajectory mixed = db[3];
  mixed.Append(1e300, 1e300);
  mixed.mutable_points().insert(mixed.mutable_points().begin(),
                                Point2{-1e20, 1e300});
  queries.push_back(mixed);

  for (size_t i = 0; i < queries.size(); ++i) {
    const Trajectory& query = queries[i];
    const KnnResult truth = engine.SeqScan(query, 5);
    EXPECT_TRUE(SameKnnDistances(truth, hsr.Knn(query, 5))) << "query " << i;
    EXPECT_TRUE(SameKnnDistances(truth, combined.Knn(query, 5)))
        << "query " << i;
    for (const int radius : {0, 4, 40}) {
      const KnnResult expected = SequentialScanRange(db, query, radius, kEps);
      EXPECT_TRUE(SameKnnDistances(expected, combined.Range(query, radius)))
          << "query " << i << " radius " << radius;
      EXPECT_TRUE(SameKnnDistances(expected, hsr.Range(query, radius)))
          << "query " << i << " radius " << radius;
    }
  }
}

TEST(EdgeCaseTest, SingleElementTrajectories) {
  TrajectoryDataset db;
  for (int i = 0; i < 12; ++i) {
    db.Add(Trajectory({{static_cast<double>(i), 0.0}}));
  }
  QueryEngine engine(db, kEps);
  const KnnResult expected = engine.SeqScan(db[4], 3);
  CombinedOptions combo;
  combo.max_triangle = 4;
  EXPECT_TRUE(
      SameKnnDistances(expected, engine.Combined(combo).Knn(db[4], 3)));
  EXPECT_TRUE(SameKnnDistances(
      expected,
      engine.MakeQgram(QgramVariant::kRtree2D, 1).search(db[4], 3)));
}

TEST(EdgeCaseTest, AllIdenticalTrajectories) {
  Rng rng(7003);
  const Trajectory t = testutil::RandomWalk(rng, 15);
  TrajectoryDataset db;
  for (int i = 0; i < 10; ++i) db.Add(t);
  QueryEngine engine(db, kEps);
  const KnnResult r = engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                                           HistogramScan::kSorted)
                          .search(t, 5);
  ASSERT_EQ(r.neighbors.size(), 5u);
  for (const Neighbor& n : r.neighbors) EXPECT_EQ(n.distance, 0.0);
}

TEST(EdgeCaseTest, QueryLongerThanEverythingInDatabase) {
  Rng rng(7004);
  TrajectoryDataset db;
  for (int i = 0; i < 15; ++i) db.Add(testutil::RandomWalk(rng, 5));
  QueryEngine engine(db, kEps);
  const Trajectory query = testutil::RandomWalk(rng, 200);
  const KnnResult expected = engine.SeqScan(query, 4);
  CombinedOptions combo;
  combo.max_triangle = 5;
  EXPECT_TRUE(
      SameKnnDistances(expected, engine.Combined(combo).Knn(query, 4)));
}

TEST(EdgeCaseTest, SubtrajectoryWithDegenerateInputs) {
  EXPECT_EQ(BestSubtrajectoryMatch(Trajectory(), Trajectory(), kEps)
                .distance,
            0);
  const Trajectory one({{1.0, 1.0}});
  const SubtrajectoryMatch m = BestSubtrajectoryMatch(one, one, kEps);
  EXPECT_EQ(m.distance, 0);
}

TEST(EdgeCaseTest, SimplifyDegenerateInputs) {
  EXPECT_TRUE(SimplifyDouglasPeucker(Trajectory(), 0.5).empty());
  const Trajectory two({{0.0, 0.0}, {1.0, 1.0}});
  EXPECT_TRUE(SimplifyDouglasPeucker(two, 0.5) == two);
  EXPECT_TRUE(Downsample(Trajectory(), 3).empty());
}

TEST(EdgeCaseTest, ZeroEpsilonStillLossless) {
  // Epsilon 0: only exact coordinate equality matches; everything still
  // has to agree with the scan.
  const TrajectoryDataset db = testutil::SmallDataset(7005, 30, 3, 20);
  QueryEngine engine(db, 0.0);
  const KnnResult expected = engine.SeqScan(db[3], 5);
  CombinedOptions combo;
  combo.max_triangle = 5;
  EXPECT_TRUE(
      SameKnnDistances(expected, engine.Combined(combo).Knn(db[3], 5)));
}

}  // namespace
}  // namespace edr
