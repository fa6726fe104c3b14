#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/cpu.h"
#include "core/rng.h"
#include "core/trajectory3.h"
#include "distance/distance3.h"
#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "pruning/histogram.h"
#include "pruning/qgram.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

const KernelLevel kAllLevels[] = {KernelLevel::kScalar, KernelLevel::kSse2,
                                  KernelLevel::kAvx2, KernelLevel::kAvx512,
                                  KernelLevel::kNeon};

/// Restores the environment-resolved dispatch level however a test exits.
struct LevelGuard {
  ~LevelGuard() { ResetActiveKernelLevel(); }
};

TEST(CpuDispatchTest, NamesRoundTrip) {
  for (const KernelLevel level : kAllLevels) {
    KernelLevel parsed;
    ASSERT_TRUE(ParseKernelLevel(KernelLevelName(level), &parsed))
        << KernelLevelName(level);
    EXPECT_EQ(parsed, level);
  }
  KernelLevel out;
  EXPECT_FALSE(ParseKernelLevel("sse9", &out));
  EXPECT_FALSE(ParseKernelLevel("", &out));
  EXPECT_FALSE(ParseKernelLevel(nullptr, &out));
}

TEST(CpuDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(KernelLevelSupported(KernelLevel::kScalar));
}

TEST(CpuDispatchTest, ActiveLevelIsSupported) {
  EXPECT_TRUE(KernelLevelSupported(ActiveKernelLevel()));
}

TEST(CpuDispatchTest, PinningFollowsSupport) {
  LevelGuard guard;
  for (const KernelLevel level : kAllLevels) {
    const KernelLevel before = ActiveKernelLevel();
    if (KernelLevelSupported(level)) {
      EXPECT_TRUE(SetActiveKernelLevel(level));
      EXPECT_EQ(ActiveKernelLevel(), level);
    } else {
      EXPECT_FALSE(SetActiveKernelLevel(level));
      EXPECT_EQ(ActiveKernelLevel(), before);
    }
  }
}

// Every kernel level available on this host must produce bit-identical
// results to the pinned-scalar baseline across the three dispatching
// kernel families: the histogram bound sweep, the Q-gram merge-count (and
// its early-exit at-least form), and the bit-parallel EDR match vectors.
TEST(CpuDispatchTest, AllSupportedLevelsBitIdentical) {
  LevelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(601, 250, 6, 40);
  const auto queries = testutil::MakeQueries(db, 602, 3);

  const HistogramTable table(db, kEps, HistogramTable::Kind::k2D, 1);
  const QgramMeansTable means_table(db, /*q=*/1, /*dims=*/2);
  std::vector<std::vector<Point2>> query_means;
  for (const Trajectory& q : queries) {
    std::vector<Point2> means = MeanValueQgrams(q, 1);
    SortMeans(means);
    query_means.push_back(std::move(means));
  }

  // Scalar baseline.
  ASSERT_TRUE(SetActiveKernelLevel(KernelLevel::kScalar));
  std::vector<std::vector<int>> base_sweeps;
  std::vector<std::vector<size_t>> base_counts;
  std::vector<std::vector<int>> base_edr;
  EdrScratch scratch;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto qh = table.MakeQueryHistogram(queries[qi]);
    std::vector<int> sweep;
    table.FastLowerBoundSweep(qh, &sweep);
    base_sweeps.push_back(std::move(sweep));
    std::vector<size_t> counts(db.size());
    std::vector<int> dists(db.size());
    for (uint32_t id = 0; id < db.size(); ++id) {
      counts[id] = means_table.CountMatches2D(query_means[qi], kEps, id);
      dists[id] = EdrDistanceBitParallel(queries[qi], db[id], kEps, scratch);
    }
    base_counts.push_back(std::move(counts));
    base_edr.push_back(std::move(dists));
  }

  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const auto qh = table.MakeQueryHistogram(queries[qi]);
      std::vector<int> sweep;
      table.FastLowerBoundSweep(qh, &sweep);
      EXPECT_EQ(sweep, base_sweeps[qi]);
      for (uint32_t id = 0; id < db.size(); ++id) {
        ASSERT_EQ(means_table.CountMatches2D(query_means[qi], kEps, id),
                  base_counts[qi][id])
            << "id=" << id;
        ASSERT_EQ(EdrDistanceBitParallel(queries[qi], db[id], kEps, scratch),
                  base_edr[qi][id])
            << "id=" << id;
      }
    }
    // The early-exit at-least test must decide exactly what the full count
    // decides, for every threshold from "always" (<= 0) to "never" (above
    // the number of query means), including an empty query.
    std::vector<std::vector<Point2>> at_least_means = query_means;
    at_least_means.emplace_back();
    for (const std::vector<Point2>& means : at_least_means) {
      for (uint32_t id = 0; id < db.size(); ++id) {
        const long count =
            static_cast<long>(means_table.CountMatches2D(means, kEps, id));
        for (long t = -1; t <= static_cast<long>(means.size()) + 1; ++t) {
          ASSERT_EQ(means_table.CountMatches2DAtLeast(means, kEps, id, t),
                    count >= t)
              << "|Q|=" << means.size() << " id=" << id << " t=" << t;
        }
      }
    }
  }
}

// The bitmap word-walk and blocked-sparse scatter column kernels, plus the
// fused query-major kernels on top of them, must be bit-identical to the
// pinned-scalar baseline at every supported level. The dataset is shaped
// so the adaptive table holds all four column layouts at once: a tight
// all-ones cluster (bitmap), a repeated-point cluster (dense), far-away
// random walks (blocked-sparse), and untouched space (empty).
TEST(CpuDispatchTest, MixedLayoutSweepsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(604);
  TrajectoryDataset db("mixed");
  for (int i = 0; i < 180; ++i) {
    Trajectory t;
    t.Append({rng.Gaussian(0.0, 0.02), rng.Gaussian(0.0, 0.02)});
    db.Add(t);
  }
  for (int i = 0; i < 120; ++i) {
    Trajectory t;
    for (int j = 0; j < 4; ++j) {
      t.Append({rng.Gaussian(0.9, 0.005), rng.Gaussian(0.9, 0.005)});
    }
    db.Add(t);
  }
  for (int i = 0; i < 30; ++i) {
    Trajectory w = testutil::RandomWalk(rng, 24);
    for (size_t j = 0; j < w.size(); ++j) {
      w[j].x += 10.0;
      w[j].y += 10.0;
    }
    db.Add(w);
  }
  const HistogramTable table(db, 0.05, HistogramTable::Kind::k2D, 1,
                             HistogramLayout::kAdaptive);
  const HistogramStorageStats stats = table.storage_stats();
  ASSERT_GT(stats.bitmap_columns, 0u);
  ASSERT_GT(stats.sparse_columns, 0u);
  ASSERT_GT(stats.dense_columns, 0u);
  ASSERT_GT(stats.empty_columns, 0u);

  std::vector<HistogramTable::QueryHistogram> qhs;
  for (const size_t i : {size_t{0}, size_t{100}, size_t{200}, size_t{310}}) {
    qhs.push_back(table.MakeQueryHistogram(db[i]));
  }
  std::vector<const HistogramTable::QueryHistogram*> group;
  for (const auto& qh : qhs) group.push_back(&qh);

  ASSERT_TRUE(SetActiveKernelLevel(KernelLevel::kScalar));
  std::vector<std::vector<int>> base_single(qhs.size());
  std::vector<std::vector<int>> base_fused(qhs.size());
  std::vector<std::vector<int>*> base_outs;
  for (size_t i = 0; i < qhs.size(); ++i) {
    table.FastLowerBoundSweep(qhs[i], &base_single[i]);
    base_outs.push_back(&base_fused[i]);
  }
  table.FastLowerBoundSweepFused(group, base_outs);
  for (size_t i = 0; i < qhs.size(); ++i) {
    ASSERT_EQ(base_fused[i], base_single[i]) << "scalar fused i=" << i;
  }

  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    for (size_t i = 0; i < qhs.size(); ++i) {
      std::vector<int> sweep;
      table.FastLowerBoundSweep(qhs[i], &sweep);
      EXPECT_EQ(sweep, base_single[i]) << "single i=" << i;
    }
    std::vector<std::vector<int>> fused(qhs.size());
    std::vector<std::vector<int>*> outs;
    for (size_t i = 0; i < qhs.size(); ++i) outs.push_back(&fused[i]);
    table.FastLowerBoundSweepFused(group, outs);
    for (size_t i = 0; i < qhs.size(); ++i) {
      EXPECT_EQ(fused[i], base_single[i]) << "fused i=" << i;
    }
  }
}

// The fused Q-gram merge-count kernels must match the scalar baseline at
// every supported level and group size.
TEST(CpuDispatchTest, FusedQgramCountsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(605, 200, 6, 40);
  const auto queries = testutil::MakeQueries(db, 606, 4);
  const QgramMeansTable means_table(db, /*q=*/1, /*dims=*/2);
  std::vector<std::vector<Point2>> query_means;
  std::vector<const std::vector<Point2>*> group;
  for (const Trajectory& q : queries) {
    std::vector<Point2> means = MeanValueQgrams(q, 1);
    SortMeans(means);
    query_means.push_back(std::move(means));
  }
  for (const auto& m : query_means) group.push_back(&m);

  ASSERT_TRUE(SetActiveKernelLevel(KernelLevel::kScalar));
  std::vector<std::vector<size_t>> base(group.size(),
                                        std::vector<size_t>(db.size()));
  std::vector<size_t> tmp(group.size());
  for (uint32_t id = 0; id < db.size(); ++id) {
    means_table.CountMatchesFused2D(group, kEps, id, tmp.data());
    for (size_t f = 0; f < group.size(); ++f) {
      ASSERT_EQ(tmp[f], means_table.CountMatches2D(*group[f], kEps, id))
          << "scalar fused id=" << id;
      base[f][id] = tmp[f];
    }
  }

  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    for (uint32_t id = 0; id < db.size(); ++id) {
      means_table.CountMatchesFused2D(group, kEps, id, tmp.data());
      for (size_t f = 0; f < group.size(); ++f) {
        ASSERT_EQ(tmp[f], base[f][id]) << "id=" << id << " member=" << f;
      }
    }
  }
}

Trajectory3 RandomWalk3(Rng& rng, size_t length) {
  Trajectory3 t;
  Point3 pos{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
  for (size_t i = 0; i < length; ++i) {
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, 0.1);
    pos.y += rng.Gaussian(0.0, 0.1);
    pos.z += rng.Gaussian(0.0, 0.1);
  }
  return t;
}

/// The bit-parallel kernel's whole contract on one pair whose scalar-DP
/// distance is `exact`: the unbounded value in both argument orders, and
/// the bounded one (exact within the bound, a lower bound above it
/// otherwise) at bounds -1, 0, exact-1, exact and exact+3, both orders.
template <typename TrajectoryT>
::testing::AssertionResult KernelContractHolds(const TrajectoryT& a,
                                               const TrajectoryT& b,
                                               int exact,
                                               EdrScratch& scratch) {
  const TrajectoryT* order[2][2] = {{&a, &b}, {&b, &a}};
  for (const auto& args : order) {
    const TrajectoryT& x = *args[0];
    const TrajectoryT& y = *args[1];
    const int got = EdrDistanceBitParallel(x, y, kEps, scratch);
    if (got != exact) {
      return ::testing::AssertionFailure()
             << "|x|=" << x.size() << " |y|=" << y.size() << " unbounded "
             << got << " != scalar " << exact;
    }
    for (const int bound : {-1, 0, exact - 1, exact, exact + 3}) {
      const int capped = EdrDistanceBitParallelBounded(x, y, kEps, bound,
                                                       scratch);
      const bool ok = exact <= bound ? capped == exact
                                     : capped > bound && capped <= exact;
      if (!ok) {
        return ::testing::AssertionFailure()
               << "|x|=" << x.size() << " |y|=" << y.size() << " bound "
               << bound << " gave " << capped << ", exact " << exact;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// The bounded (early-abandoning) bit-parallel kernel must keep its
// contract at every level: exact when within bound, certified > bound
// otherwise. The length cross hits every remainder of the 8-row padding
// and both sides of the 64-row word edges; both argument orders run both
// pattern/text orientations, in 2-D and 3-D, against the scalar DP. The
// NaN pairs put a NaN row inside a pattern, which must mismatch every text
// point at every level, as it does in the scalar Match().
TEST(CpuDispatchTest, BoundedEdrContractAtEveryLevel) {
  LevelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(603, 60, 6, 40);
  EdrScratch scratch;

  const size_t lengths[] = {1,  7,   8,   9,   15,  16,  17,  63,
                            64, 65,  127, 128, 129, 255, 256, 257};
  Rng rng(607);
  std::vector<Trajectory> walks;
  std::vector<Trajectory3> walks3;
  for (const size_t len : lengths) {
    walks.push_back(testutil::RandomWalk(rng, len, 0.1));
    walks3.push_back(RandomWalk3(rng, len));
  }
  Trajectory nan_walk = testutil::RandomWalk(rng, 20, 0.1);
  nan_walk[3].x = std::numeric_limits<double>::quiet_NaN();
  Trajectory3 nan_walk3 = RandomWalk3(rng, 70);
  nan_walk3[9].z = std::numeric_limits<double>::quiet_NaN();

  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    for (size_t i = 0; i + 1 < db.size(); i += 7) {
      const int exact =
          EdrDistanceBitParallel(db[i], db[i + 1], kEps, scratch);
      for (const int bound : {0, exact - 1, exact, exact + 3}) {
        if (bound < 0) continue;
        const int got = EdrDistanceBitParallelBounded(db[i], db[i + 1], kEps,
                                                      bound, scratch);
        if (exact <= bound) {
          EXPECT_EQ(got, exact);
        } else {
          EXPECT_GT(got, bound);
        }
      }
    }
    for (size_t i = 0; i < walks.size(); ++i) {
      for (size_t j = 0; j < walks.size(); ++j) {
        ASSERT_TRUE(KernelContractHolds(
            walks[i], walks[j], EdrDistance(walks[i], walks[j], kEps),
            scratch));
        ASSERT_TRUE(KernelContractHolds(
            walks3[i], walks3[j], EdrDistance(walks3[i], walks3[j], kEps),
            scratch));
      }
      ASSERT_TRUE(KernelContractHolds(
          nan_walk, walks[i], EdrDistance(nan_walk, walks[i], kEps), scratch));
      ASSERT_TRUE(KernelContractHolds(nan_walk3, walks3[i],
                                      EdrDistance(nan_walk3, walks3[i], kEps),
                                      scratch));
    }
  }
}

// Every EDR call records the DP it ran (EdrScratch::last_rows /
// last_columns), which StageCounters::dp_cells and the combined searcher's
// filter cost gate read. At every level, and in the scalar kernel, an
// exact call runs the whole |r| x |s| table and an abandoned one at most
// its n columns, stopping early on some pairs. The bit-parallel floor
// rises by at most 2 per column and ends at the exact value, so a bound 3
// or more below it always stops before the last column.
TEST(CpuDispatchTest, EdrReportsTheColumnsItRan) {
  LevelGuard guard;
  const size_t lengths[] = {1, 7, 8, 9, 63, 64, 65, 128, 129};
  Rng rng(611);
  std::vector<Trajectory> walks;
  for (const size_t len : lengths) {
    walks.push_back(testutil::RandomWalk(rng, len, 0.1));
  }
  EdrScratch scratch;
  const auto check = [&](EdrKernel kernel, size_t* stopped_early) {
    for (const Trajectory& r : walks) {
      for (const Trajectory& s : walks) {
        const size_t table = r.size() * s.size();
        const int exact = EdrDistanceWith(kernel, scratch, r, s, kEps);
        ASSERT_TRUE(scratch.last_rows() == r.size() ||
                    scratch.last_rows() == s.size());
        const size_t n = table / scratch.last_rows();
        EXPECT_EQ(scratch.last_columns(), n);
        for (const int bound : {0, exact / 2, exact - 3, exact - 1, exact}) {
          if (bound < 0) continue;
          const int got =
              EdrDistanceBoundedWith(kernel, scratch, r, s, kEps, bound);
          if (got <= bound) {
            EXPECT_EQ(scratch.last_rows() * scratch.last_columns(), table);
            continue;
          }
          EXPECT_LE(scratch.last_columns(), n);
          if (kernel == EdrKernel::kBitParallel && bound <= exact - 3) {
            EXPECT_LT(scratch.last_columns(), n);
          }
          if (scratch.last_rows() * scratch.last_columns() < table) {
            ++*stopped_early;
          }
        }
      }
    }
  };
  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    size_t stopped_early = 0;
    check(EdrKernel::kBitParallel, &stopped_early);
    EXPECT_GT(stopped_early, 0u);
  }
  size_t stopped_early = 0;
  check(EdrKernel::kScalar, &stopped_early);
  EXPECT_GT(stopped_early, 0u);
}

}  // namespace
}  // namespace edr
