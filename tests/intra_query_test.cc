#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "pruning/combined.h"
#include "pruning/cse.h"
#include "pruning/histogram_knn.h"
#include "pruning/lcss_knn.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram_knn.h"
#include "query/intra_query.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "query/topk.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;
constexpr size_t kDbSize = 1500;
constexpr size_t kMaxTriangle = 30;

// Shared fixtures: built once, reused by every test in the binary. The
// database is large enough (1500 trajectories) that worker shards see
// thousands of candidates each, and the dedicated 8-thread pool makes the
// multi-worker paths real even on single-core CI machines.
const TrajectoryDataset& Db() {
  static const TrajectoryDataset db =
      testutil::SmallDataset(404, kDbSize, 6, 40);
  return db;
}

ThreadPool& Pool() {
  static ThreadPool pool(8);
  return pool;
}

const PairwiseEdrMatrix& Matrix() {
  static const PairwiseEdrMatrix matrix =
      PairwiseEdrMatrix::Build(Db(), kEps, kMaxTriangle);
  return matrix;
}

using KnnFn =
    std::function<KnnResult(const Trajectory&, size_t, const KnnOptions&)>;

// The core property of the tentpole: for every worker count the parallel
// refinement returns *bit-identical* neighbors — same ids, same exact
// distances, same order — as the sequential single-worker path.
void ExpectBitIdenticalAcrossWorkers(const std::string& label,
                                     const KnnFn& knn) {
  const auto queries = testutil::MakeQueries(Db(), 405, 3);
  for (const size_t k : {1u, 10u}) {
    for (const Trajectory& query : queries) {
      const KnnResult expected = knn(query, k, KnnOptions{});
      for (const unsigned workers : {1u, 2u, 8u}) {
        KnnOptions options;
        options.intra_query_workers = workers;
        options.pool = &Pool();
        const KnnResult actual = knn(query, k, options);
        ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size())
            << label << " workers=" << workers << " k=" << k;
        for (size_t i = 0; i < expected.neighbors.size(); ++i) {
          EXPECT_EQ(expected.neighbors[i].id, actual.neighbors[i].id)
              << label << " workers=" << workers << " k=" << k
              << " rank=" << i;
          EXPECT_EQ(expected.neighbors[i].distance,
                    actual.neighbors[i].distance)
              << label << " workers=" << workers << " k=" << k
              << " rank=" << i;
        }
      }
    }
  }
}

TEST(IntraQueryTest, QgramMergeJoinBitIdentical) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  ExpectBitIdenticalAcrossWorkers(
      "PS2", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ps2.Knn(q, k, o);
      });
  const QgramKnnSearcher ps1(Db(), kEps, /*q=*/1, QgramVariant::kMerge1D);
  ExpectBitIdenticalAcrossWorkers(
      "PS1", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ps1.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, HistogramSequentialScanBitIdentical) {
  const HistogramKnnSearcher hse(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  ExpectBitIdenticalAcrossWorkers(
      "HSE", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return hse.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, HistogramSortedScanBitIdentical) {
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  ExpectBitIdenticalAcrossWorkers(
      "HSR", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return hsr.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, NearTriangleBitIdentical) {
  const NearTriangleSearcher ntr(Db(), kEps, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "NTR", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ntr.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, CseBitIdentical) {
  const CseSearcher cse(Db(), kEps, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "CSE", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return cse.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, CombinedBitIdentical) {
  CombinedOptions combined_options;
  combined_options.max_triangle = kMaxTriangle;
  const CombinedKnnSearcher combined(Db(), kEps, combined_options, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "2HPN", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return combined.Knn(q, k, o);
      });
  // Database-order variant (no sorted histogram scan): exercises the
  // db-order refinement driver through the combined filter chain.
  combined_options.sorted_histogram_scan = false;
  const CombinedKnnSearcher seq_scan(Db(), kEps, combined_options, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "2HPN/seq", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return seq_scan.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, LcssBitIdentical) {
  const LcssKnnSearcher lcss(Db(), kEps, LcssFilter::kBoth);
  ExpectBitIdenticalAcrossWorkers(
      "LCSS-HP", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return lcss.Knn(q, k, o);
      });
}

// All six searchers must also agree with the plain sequential scan —
// parallelism on top of the filters must stay lossless end to end.
TEST(IntraQueryTest, ParallelResultsAreLossless) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const NearTriangleSearcher ntr(Db(), kEps, Matrix());
  KnnOptions options;
  options.intra_query_workers = 8;
  options.pool = &Pool();
  for (const Trajectory& query : testutil::MakeQueries(Db(), 406, 2)) {
    const KnnResult truth = SequentialScanKnn(Db(), query, 10, kEps);
    EXPECT_TRUE(SameKnnDistances(truth, ps2.Knn(query, 10, options)));
    EXPECT_TRUE(SameKnnDistances(truth, hsr.Knn(query, 10, options)));
    EXPECT_TRUE(SameKnnDistances(truth, ntr.Knn(query, 10, options)));
  }
}

// Both refine drivers with the range sink, over a synthetic filter-and-
// refine: candidate i has distance Dist(i) and lower bound Dist(i) / 2,
// and "refining" past the threshold abandons. Every worker count must
// return exactly the candidates within the radius, sorted by
// (distance, id) — the sink's only cover under concurrency.
TEST(IntraQueryTest, RadiusSinkDriversIdenticalAcrossWorkers) {
  constexpr size_t kCandidates = 3000;
  const auto dist_of = [](uint32_t id) {
    return static_cast<int>((id * 2654435761u) % 97u);
  };
  const auto process = [&](unsigned, uint32_t id, double threshold,
                           double* dist) {
    const int d = dist_of(id);
    if (static_cast<double>(d) > threshold) return false;
    *dist = static_cast<double>(d);
    return true;
  };
  const auto stop = [](int key, double threshold) {
    return static_cast<double>(key) > threshold;
  };

  for (const int radius : {-1, 0, 20, 96}) {
    std::vector<Neighbor> expected;
    for (uint32_t id = 0; id < kCandidates; ++id) {
      if (dist_of(id) <= radius) {
        expected.push_back({id, static_cast<double>(dist_of(id))});
      }
    }
    SortNeighborsAscending(&expected);
    for (const unsigned workers : {1u, 3u, 8u}) {
      KnnOptions options;
      options.intra_query_workers = workers;
      options.pool = &Pool();

      RadiusSink db_sink(radius);
      EXPECT_EQ(RefineInDbOrder(kCandidates, db_sink, options, process),
                expected)
          << "db order, radius=" << radius << " workers=" << workers;

      std::vector<StreamingOrder<int>::Entry> entries(kCandidates);
      for (uint32_t id = 0; id < kCandidates; ++id) {
        entries[id] = {dist_of(id) / 2, id};
      }
      RadiusSink key_sink(radius);
      EXPECT_EQ(RefineInKeyOrder<int>(std::move(entries), key_sink, options,
                                      process, stop),
                expected)
          << "key order, radius=" << radius << " workers=" << workers;
    }
  }
}

TEST(IntraQueryTest, ZeroKReturnsEmpty) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  KnnOptions options;
  options.intra_query_workers = 8;
  options.pool = &Pool();
  const auto queries = testutil::MakeQueries(Db(), 407, 1);
  const KnnResult result = ps2.Knn(queries[0], 0, options);
  EXPECT_TRUE(result.neighbors.empty());
}

}  // namespace
}  // namespace edr
