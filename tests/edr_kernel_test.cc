#include "distance/edr_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.h"
#include "core/trajectory.h"
#include "core/trajectory3.h"
#include "distance/distance3.h"
#include "distance/edr.h"
#include "pruning/combined.h"
#include "query/engine.h"
#include "query/knn.h"
#include "test_util.h"

namespace edr {
namespace {

/// Restores the process-wide default kernel when a test body returns.
struct KernelGuard {
  EdrKernel saved = DefaultEdrKernel();
  ~KernelGuard() { SetDefaultEdrKernel(saved); }
};

Trajectory RandomTrajectory(Rng& rng, size_t length) {
  // Correlated walk with occasional teleports: produces a realistic mix of
  // epsilon-matching and non-matching element pairs.
  Trajectory t;
  Point2 pos{rng.Gaussian(), rng.Gaussian()};
  for (size_t i = 0; i < length; ++i) {
    if (rng.NextDouble() < 0.05) {
      pos = {rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
    }
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, 0.3);
    pos.y += rng.Gaussian(0.0, 0.3);
  }
  return t;
}

Trajectory3 RandomTrajectory3(Rng& rng, size_t length) {
  Trajectory3 t;
  Point3 pos{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
  for (size_t i = 0; i < length; ++i) {
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, 0.3);
    pos.y += rng.Gaussian(0.0, 0.3);
    pos.z += rng.Gaussian(0.0, 0.3);
  }
  return t;
}

size_t RandomLength(Rng& rng) {
  // Bias toward the 64-bit word boundaries where the multi-word carry
  // logic can go wrong, plus a uniform spread of short/medium lengths.
  switch (rng.UniformInt(0, 3)) {
    case 0: return static_cast<size_t>(rng.UniformInt(62, 66));
    case 1: return static_cast<size_t>(rng.UniformInt(126, 130));
    case 2: return static_cast<size_t>(rng.UniformInt(0, 40));
    default: return static_cast<size_t>(rng.UniformInt(1, 200));
  }
}

TEST(EdrKernelTest, BitParallelMatchesScalarOnRandomPairs) {
  Rng rng(20250806);
  EdrScratch scratch;
  const double epsilons[] = {0.05, 0.25, 1.0};
  for (int iter = 0; iter < 1000; ++iter) {
    const Trajectory a = RandomTrajectory(rng, RandomLength(rng));
    const Trajectory b = RandomTrajectory(rng, RandomLength(rng));
    const double eps = epsilons[iter % 3];
    const int scalar = EdrDistance(a, b, eps);
    const int bitpar = EdrDistanceBitParallel(a, b, eps, scratch);
    ASSERT_EQ(scalar, bitpar)
        << "iter=" << iter << " |a|=" << a.size() << " |b|=" << b.size()
        << " eps=" << eps;
  }
}

TEST(EdrKernelTest, WordBoundaryLengths) {
  Rng rng(7);
  EdrScratch scratch;
  const size_t lengths[] = {1,  2,   7,   8,   9,   15,  16,  17,
                            63, 64,  65,  127, 128, 129, 192, 256};
  for (const size_t la : lengths) {
    for (const size_t lb : lengths) {
      const Trajectory a = RandomTrajectory(rng, la);
      const Trajectory b = RandomTrajectory(rng, lb);
      ASSERT_EQ(EdrDistance(a, b, 0.25),
                EdrDistanceBitParallel(a, b, 0.25, scratch))
          << "|a|=" << la << " |b|=" << lb;
    }
  }
}

TEST(EdrKernelTest, EdgeCases) {
  EdrScratch scratch;
  const Trajectory empty;
  Rng rng(11);
  const Trajectory one = RandomTrajectory(rng, 1);
  const Trajectory walk = RandomTrajectory(rng, 100);

  EXPECT_EQ(EdrDistanceBitParallel(empty, empty, 0.25, scratch), 0);
  EXPECT_EQ(EdrDistanceBitParallel(empty, walk, 0.25, scratch), 100);
  EXPECT_EQ(EdrDistanceBitParallel(walk, empty, 0.25, scratch), 100);
  EXPECT_EQ(EdrDistanceBitParallel(one, one, 0.25, scratch), 0);
  EXPECT_EQ(EdrDistanceBitParallel(walk, walk, 0.25, scratch), 0);

  // All-mismatch: disjoint spatial ranges force EDR = max(m, n).
  Trajectory far = RandomTrajectory(rng, 70);
  for (Point2& p : far.mutable_points()) p.x += 1000.0;
  EXPECT_EQ(EdrDistanceBitParallel(walk, far, 0.25, scratch), 100);
  EXPECT_EQ(EdrDistance(walk, far, 0.25), 100);

  // Identical trajectories at a word-boundary length.
  const Trajectory b64 = RandomTrajectory(rng, 64);
  EXPECT_EQ(EdrDistanceBitParallel(b64, b64, 0.25, scratch), 0);
}

TEST(EdrKernelTest, BoundedContractBothKernels) {
  Rng rng(42);
  EdrScratch scratch;
  for (int iter = 0; iter < 400; ++iter) {
    const Trajectory a = RandomTrajectory(rng, RandomLength(rng));
    const Trajectory b = RandomTrajectory(rng, RandomLength(rng));
    const int exact = EdrDistance(a, b, 0.25);
    const int max_len = static_cast<int>(std::max(a.size(), b.size()));
    const int bound =
        static_cast<int>(rng.UniformInt(-1, std::max(1, max_len)));
    for (const EdrKernel kernel :
         {EdrKernel::kScalar, EdrKernel::kBitParallel}) {
      const int got =
          EdrDistanceBoundedWith(kernel, scratch, a, b, 0.25, bound);
      if (exact <= bound) {
        ASSERT_EQ(got, exact) << EdrKernelName(kernel) << " bound=" << bound;
      } else {
        ASSERT_GT(got, bound) << EdrKernelName(kernel);
        ASSERT_LE(got, exact) << EdrKernelName(kernel)
                              << " (not a lower bound) bound=" << bound;
      }
    }
  }
}

TEST(EdrKernelTest, DispatchMatchesPublicApi) {
  Rng rng(9);
  EdrScratch scratch;
  for (int iter = 0; iter < 100; ++iter) {
    const Trajectory a = RandomTrajectory(rng, RandomLength(rng));
    const Trajectory b = RandomTrajectory(rng, RandomLength(rng));
    const int expected = EdrDistance(a, b, 0.25);
    EXPECT_EQ(EdrDistanceWith(EdrKernel::kScalar, scratch, a, b, 0.25),
              expected);
    EXPECT_EQ(EdrDistanceWith(EdrKernel::kBitParallel, scratch, a, b, 0.25),
              expected);
  }
}

TEST(EdrKernelTest, BitParallelMatchesScalar3D) {
  Rng rng(123);
  EdrScratch scratch;
  for (int iter = 0; iter < 200; ++iter) {
    const Trajectory3 a = RandomTrajectory3(rng, RandomLength(rng));
    const Trajectory3 b = RandomTrajectory3(rng, RandomLength(rng));
    const int scalar = EdrDistance(a, b, 0.3);
    ASSERT_EQ(scalar, EdrDistanceBitParallel(a, b, 0.3, scratch))
        << "|a|=" << a.size() << " |b|=" << b.size();
    const int bound = static_cast<int>(rng.UniformInt(0, 60));
    const int got = EdrDistanceBoundedWith(EdrKernel::kBitParallel, scratch,
                                           a, b, 0.3, bound);
    if (scalar <= bound) {
      ASSERT_EQ(got, scalar);
    } else {
      ASSERT_GT(got, bound);
      ASSERT_LE(got, scalar);
    }
  }
}

TEST(EdrKernelTest, BoundFromKthDistanceHandlesInfinities) {
  EXPECT_EQ(EdrBoundFromKthDistance(
                std::numeric_limits<double>::infinity()),
            kEdrNoBound);
  EXPECT_EQ(EdrBoundFromKthDistance(
                -std::numeric_limits<double>::infinity()),
            -1);
  EXPECT_EQ(EdrBoundFromKthDistance(7.0), 7);
}

TEST(EdrKernelTest, KernelNamesAreStable) {
  EXPECT_STREQ(EdrKernelName(EdrKernel::kScalar), "scalar");
  EXPECT_STREQ(EdrKernelName(EdrKernel::kBitParallel), "bit-parallel");
}

// End-to-end certification: the combined searcher (all three filters plus
// bounded refinement) returns distances identical to the sequential-scan
// ground truth under either kernel.
TEST(EdrKernelTest, CombinedSearcherLosslessUnderBothKernels) {
  KernelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(77, 60);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 78, 4);
  constexpr double kEps = 0.25;
  CombinedOptions options;
  options.max_triangle = 20;

  SetDefaultEdrKernel(EdrKernel::kScalar);
  std::vector<KnnResult> truth;
  for (const Trajectory& q : queries) {
    truth.push_back(SequentialScanKnn(db, q, 5, kEps));
  }

  for (const EdrKernel kernel :
       {EdrKernel::kScalar, EdrKernel::kBitParallel}) {
    SetDefaultEdrKernel(kernel);
    const CombinedKnnSearcher searcher(db, kEps, options);
    for (size_t i = 0; i < queries.size(); ++i) {
      const KnnResult got = searcher.Knn(queries[i], 5);
      EXPECT_TRUE(SameKnnDistances(truth[i], got))
          << "kernel=" << EdrKernelName(kernel) << " query " << i;
    }
  }
}

// A parallel k-NN batch (QueryEngine::KnnBatch on the pool) runs each
// query on a worker with its own thread-local scratch; results must match
// the single-threaded scan exactly.
TEST(EdrKernelTest, ParallelKnnMatchesSequentialWithThreadLocalScratch) {
  KernelGuard guard;
  SetDefaultEdrKernel(EdrKernel::kBitParallel);
  const TrajectoryDataset db = testutil::SmallDataset(31, 40);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 32, 6);

  const QueryEngine engine(db, 0.25);
  const std::vector<KnnResult> parallel =
      engine.KnnBatch(engine.MakeSeqScan(), queries, 5, 4);
  ASSERT_EQ(parallel.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const KnnResult seq = SequentialScanKnn(db, queries[i], 5, 0.25);
    EXPECT_TRUE(SameKnnDistances(seq, parallel[i])) << "query " << i;
  }
}

}  // namespace
}  // namespace edr
