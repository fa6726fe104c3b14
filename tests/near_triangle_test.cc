#include "pruning/near_triangle.h"

#include <gtest/gtest.h>

#include "distance/edr.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(PairwiseEdrMatrixTest, EntriesAreTrueDistances) {
  const TrajectoryDataset db = testutil::SmallDataset(11, 20);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::Build(db, kEps, 5);
  EXPECT_EQ(m.num_refs(), 5u);
  EXPECT_EQ(m.db_size(), 20u);
  for (size_t r = 0; r < m.num_refs(); ++r) {
    for (uint32_t s = 0; s < db.size(); ++s) {
      EXPECT_EQ(m.at(r, s), EdrDistance(db[r], db[s], kEps));
    }
  }
}

TEST(PairwiseEdrMatrixTest, DiagonalZeroAndSymmetricAmongRefs) {
  const TrajectoryDataset db = testutil::SmallDataset(12, 15);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::Build(db, kEps, 8);
  for (size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(m.at(r, static_cast<uint32_t>(r)), 0);
    for (size_t s = 0; s < 8; ++s) {
      EXPECT_EQ(m.at(r, static_cast<uint32_t>(s)),
                m.at(s, static_cast<uint32_t>(r)));
    }
  }
}

TEST(PairwiseEdrMatrixTest, RefCountClampedToDbSize) {
  const TrajectoryDataset db = testutil::SmallDataset(13, 6);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::Build(db, kEps, 100);
  EXPECT_EQ(m.num_refs(), 6u);
}

TEST(ParallelMatrixBuildTest, IdenticalToSequentialBuild) {
  const TrajectoryDataset db = testutil::SmallDataset(706, 40, 5, 40);
  const PairwiseEdrMatrix sequential =
      PairwiseEdrMatrix::Build(db, kEps, 15);
  const PairwiseEdrMatrix parallel =
      PairwiseEdrMatrix::BuildParallel(db, kEps, 15, 4);
  ASSERT_EQ(parallel.num_refs(), sequential.num_refs());
  ASSERT_EQ(parallel.db_size(), sequential.db_size());
  EXPECT_EQ(parallel.data(), sequential.data());
}

TEST(ParallelMatrixBuildTest, HandlesDegenerateSizes) {
  const TrajectoryDataset db = testutil::SmallDataset(707, 3);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::BuildParallel(db, kEps, 0);
  EXPECT_EQ(m.num_refs(), 0u);
  const PairwiseEdrMatrix m2 =
      PairwiseEdrMatrix::BuildParallel(db, kEps, 100, 16);
  EXPECT_EQ(m2.num_refs(), 3u);
}

class NearTriangleLosslessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NearTriangleLosslessTest, MatchesSequentialScan) {
  const TrajectoryDataset db = testutil::SmallDataset(GetParam(), 90, 5, 70);
  const NearTriangleSearcher searcher(db, kEps, 30);
  for (const Trajectory& query :
       testutil::MakeQueries(db, GetParam() ^ 0xAB, 4)) {
    const KnnResult expected = SequentialScanKnn(db, query, 10, kEps);
    const KnnResult actual = searcher.Knn(query, 10);
    EXPECT_TRUE(SameKnnDistances(expected, actual));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearTriangleLosslessTest,
                         ::testing::Range<uint64_t>(500, 508));

TEST(NearTriangleTest, NoPruningOnFixedLengthData) {
  // Section 5.2: the |S| slack means nothing is pruned when all
  // trajectories (and the query) share one length.
  Rng rng(14);
  TrajectoryDataset db;
  for (int i = 0; i < 40; ++i) db.Add(testutil::RandomWalk(rng, 32));
  const NearTriangleSearcher searcher(db, kEps, 20);
  const KnnResult result = searcher.Knn(db[0], 5);
  EXPECT_EQ(result.stats.edr_computed, db.size());
  EXPECT_DOUBLE_EQ(result.stats.PruningPower(), 0.0);
}

TEST(NearTriangleTest, CanPruneOnVariableLengthData) {
  // The bound EDR(Q,R) - EDR(S,R) - |S| fires when the reference R is far
  // from the query (EDR(Q,R) large, here via a length gap) while the
  // candidate S is short and close to R. Construct exactly that: a long
  // query with close matches in the database, plus many short candidates.
  Rng rng(15);
  const Trajectory query = testutil::RandomWalk(rng, 200, 0.3);

  TrajectoryDataset db;
  // References (scanned first): short walks, far from the long query.
  for (int i = 0; i < 10; ++i) db.Add(testutil::RandomWalk(rng, 5, 0.3));
  // Close matches for the query so bestSoFar becomes small.
  for (int i = 0; i < 3; ++i) {
    Trajectory near = query;
    near[0] = {near[0].x + 3.0, near[0].y};
    db.Add(std::move(near));
  }
  // Many more short candidates that the references should prune.
  for (int i = 0; i < 40; ++i) db.Add(testutil::RandomWalk(rng, 5, 0.3));

  const NearTriangleSearcher searcher(db, kEps, 10);
  const KnnResult expected = SequentialScanKnn(db, query, 3, kEps);
  const KnnResult actual = searcher.Knn(query, 3);
  EXPECT_TRUE(SameKnnDistances(expected, actual));
  EXPECT_LT(actual.stats.edr_computed, db.size() / 2);
  EXPECT_GT(actual.stats.PruningPower(), 0.4);
}

TEST(NearTriangleTest, SharedMatrixConstructorBehavesTheSame) {
  const TrajectoryDataset db = testutil::SmallDataset(16, 30);
  PairwiseEdrMatrix matrix = PairwiseEdrMatrix::Build(db, kEps, 10);
  const NearTriangleSearcher a(db, kEps, 10);
  const NearTriangleSearcher b(db, kEps, std::move(matrix));
  const Trajectory query = db[4];
  EXPECT_TRUE(SameKnnDistances(a.Knn(query, 5), b.Knn(query, 5)));
}

}  // namespace
}  // namespace edr
