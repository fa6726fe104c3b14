// The combined searcher's cost gate on its lazy filters (Q-gram and
// near-triangle): the gate decision itself, and a differential oracle that
// holds the gated chain, the always-on chain and the sequential scan to
// the same answers on adversarial data, in every filter order.

#include "pruning/filter_gate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/openmetrics.h"
#include "obs/registry.h"
#include "pruning/combined.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

// ---------------------------------------------------------------------------
// The decision, as a pure function of counts and static weights.
// ---------------------------------------------------------------------------

// The shapes are means measured on 2HPN refinement at the final k-th
// distance. A 40-point query against 50k 40-point walks (q = 1): the
// merge visits 29 of the 40 query means and a bounded DP runs 38 of its
// 40 columns. bench_e2e's walk_knn (10k normalized walks of 30-256
// points): 75 means visited, a 158-row pattern over 78 columns.
TEST(FilterGateTest, ScalarKeepsQgramOnShortWalksAtHalfPruned) {
  const FilterCostWeights& w = FilterCostWeightsFor(KernelLevel::kScalar);
  EXPECT_TRUE(LazyTestPays(0.54, w.Dp(EdrKernel::kBitParallel, 40, 38),
                           w.QgramTest(29)));
}

TEST(FilterGateTest, Avx512DropsQgramAtWalkKnnPruneRate) {
  const FilterCostWeights& w = FilterCostWeightsFor(KernelLevel::kAvx512);
  EXPECT_FALSE(LazyTestPays(0.038, w.Dp(EdrKernel::kBitParallel, 158, 78),
                            w.QgramTest(75)));
}

TEST(FilterGateTest, ModelIsCountsTimesWeights) {
  for (const KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kSse2, KernelLevel::kAvx2,
        KernelLevel::kAvx512, KernelLevel::kNeon}) {
    const FilterCostWeights& w = FilterCostWeightsFor(level);
    // A DP that ran no column costs its call; columns add linearly.
    const double none = w.Dp(EdrKernel::kBitParallel, 100, 0);
    const double one = w.Dp(EdrKernel::kBitParallel, 100, 1);
    EXPECT_DOUBLE_EQ(none, w.dp_call);
    EXPECT_DOUBLE_EQ(w.Dp(EdrKernel::kBitParallel, 100, 10),
                     none + 10 * (one - none));
    // A longer pattern never makes a column cheaper.
    EXPECT_LE(one, w.Dp(EdrKernel::kBitParallel, 200, 1));
    EXPECT_DOUBLE_EQ(w.Dp(EdrKernel::kScalar, 10, 20),
                     w.dp_call + 200 * w.dp_cell);
    EXPECT_LT(w.QgramTest(1), w.QgramTest(2));
    EXPECT_LT(w.TriangleTest(0), w.TriangleTest(5));
  }
}

TEST(FilterGateTest, GateWarmsUpThenProbesAFilterThatDoesNotPay) {
  LazyStepGate gate;
  // A filter that never prunes, against a priced DP.
  size_t tested = 0;
  for (uint64_t i = 0; i < LazyStepGate::kWarmup; ++i) {
    ASSERT_TRUE(gate.ShouldTest(/*mean_dp_cost=*/1000.0));
    gate.Record(false, 100.0);
    ++tested;
  }
  const size_t later = 32 * LazyStepGate::kProbeEvery;
  for (size_t i = 0; i < later; ++i) {
    if (gate.ShouldTest(1000.0)) {
      gate.Record(false, 100.0);
      ++tested;
    }
  }
  EXPECT_EQ(tested,
            LazyStepGate::kWarmup + later / LazyStepGate::kProbeEvery);
}

TEST(FilterGateTest, GateKeepsAFilterThatPays) {
  LazyStepGate gate;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(gate.ShouldTest(1000.0)) << i;
    gate.Record(i % 2 == 0, 100.0);  // prunes half: 0.5 x 1000 >= 100
  }
}

TEST(FilterGateTest, GateStaysOnUntilADpIsPriced) {
  LazyStepGate gate;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(gate.ShouldTest(-1.0)) << i;
    gate.Record(false, 100.0);
  }
}

TEST(FilterGateTest, GateComesBackWhenTheFilterStartsPaying) {
  LazyStepGate gate;
  for (uint64_t i = 0; i < LazyStepGate::kWarmup; ++i) {
    ASSERT_TRUE(gate.ShouldTest(1000.0));
    gate.Record(false, 100.0);
  }
  // Only probes now; each one prunes, until the rate clears 10%.
  size_t skipped_in_a_row = 0;
  bool back_on = false;
  for (int i = 0; i < 2000 && !back_on; ++i) {
    if (gate.ShouldTest(1000.0)) {
      back_on = skipped_in_a_row == 0 && i > 0;
      skipped_in_a_row = 0;
      gate.Record(true, 100.0);
    } else {
      ++skipped_in_a_row;
    }
  }
  EXPECT_TRUE(back_on);
}

// The k-th distance tightens over a scan, so a filter's prune rate rises
// late. The gate judges recent tests: after 10,000 candidates it never
// pruned, a filter that starts pruning every one it tests is back on
// within 1,000 candidates (a lifetime average would need over 10,000).
TEST(FilterGateTest, GateFollowsARisingPruneRate) {
  LazyStepGate gate;
  for (int i = 0; i < 10000; ++i) {
    if (gate.ShouldTest(1000.0)) gate.Record(false, 500.0);
  }
  int candidates = 0;
  int tested_in_a_row = 0;
  while (tested_in_a_row < 4 && candidates < 20000) {
    ++candidates;
    if (gate.ShouldTest(1000.0)) {
      gate.Record(true, 500.0);
      ++tested_in_a_row;
    } else {
      tested_in_a_row = 0;
    }
  }
  EXPECT_LE(candidates, 1000);
}

// ---------------------------------------------------------------------------
// Differential oracle: kCostGated == kAlways == the sequential scan.
// ---------------------------------------------------------------------------

// Walks whose lengths sit on the kernel's group and word edges.
TrajectoryDataset EdgeLengthWalks(uint64_t seed, size_t count) {
  const size_t lengths[] = {1, 7, 8, 9, 63, 64, 65, 128, 129};
  Rng rng(seed);
  TrajectoryDataset db("edge-lengths");
  for (size_t i = 0; i < count; ++i) {
    db.Add(testutil::RandomWalk(rng, lengths[i % 9], 0.3));
  }
  db.NormalizeAll();
  return db;
}

// Points from a 3 x 3 integer grid: with epsilon below the grid step every
// match is exact equality, so EDR values repeat across most pairs.
TrajectoryDataset HeavyTies(uint64_t seed, size_t count) {
  Rng rng(seed);
  TrajectoryDataset db("ties");
  for (size_t i = 0; i < count; ++i) {
    Trajectory t;
    const int64_t len = rng.UniformInt(4, 12);
    for (int64_t j = 0; j < len; ++j) {
      t.Append(static_cast<double>(rng.UniformInt(0, 2)),
               static_cast<double>(rng.UniformInt(0, 2)));
    }
    db.Add(std::move(t));
  }
  return db;
}

TrajectoryDataset AllIdentical(uint64_t seed, size_t count) {
  Rng rng(seed);
  const Trajectory t = testutil::RandomWalk(rng, 24);
  TrajectoryDataset db("identical");
  for (size_t i = 0; i < count; ++i) db.Add(t);
  return db;
}

struct Case {
  std::string name;
  TrajectoryDataset db;
  double epsilon;
  std::vector<Trajectory> queries;
  std::vector<size_t> ks;
  std::vector<int> radii;
};

std::vector<Case> AdversarialCases() {
  std::vector<Case> cases;
  {
    Case c{"edge_lengths", EdgeLengthWalks(901, 450), 0.25, {}, {}, {}};
    Rng rng(902);
    for (const size_t len : {1, 8, 65, 129}) {
      c.queries.push_back(testutil::RandomWalk(rng, len, 0.3));
    }
    c.queries.push_back(c.db[10]);
    c.ks = {1, 10, c.db.size() + 3};  // k >= n returns the whole database
    c.radii = {0, 5, 40};
    cases.push_back(std::move(c));
  }
  {
    Case c{"epsilon_zero", testutil::SmallDataset(903, 300, 1, 40), 0.0,
           {}, {}, {}};
    c.queries = testutil::MakeQueries(c.db, 904, 4);
    c.ks = {5, c.db.size()};
    c.radii = {0, 20};
    cases.push_back(std::move(c));
  }
  {
    Case c{"heavy_ties", HeavyTies(905, 400), 0.25, {}, {}, {}};
    c.queries = {c.db[3], c.db[77], c.db[200]};
    c.ks = {1, 15, c.db.size() + 1};
    c.radii = {0, 3, 8};
    cases.push_back(std::move(c));
  }
  {
    Case c{"all_identical", AllIdentical(906, 120), 0.25, {}, {}, {}};
    Rng rng(907);
    c.queries = {c.db[0], testutil::RandomWalk(rng, 24)};
    c.ks = {3, c.db.size(), c.db.size() + 5};
    c.radii = {0, 10};
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<std::pair<double, uint32_t>> ByDistanceThenId(
    const KnnResult& r) {
  std::vector<std::pair<double, uint32_t>> out;
  for (const Neighbor& n : r.neighbors) out.emplace_back(n.distance, n.id);
  std::sort(out.begin(), out.end());
  return out;
}

::testing::AssertionResult Identical(const KnnResult& a, const KnnResult& b) {
  if (a.neighbors.size() != b.neighbors.size()) {
    return ::testing::AssertionFailure()
           << a.neighbors.size() << " vs " << b.neighbors.size()
           << " neighbors";
  }
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    if (a.neighbors[i].id != b.neighbors[i].id ||
        a.neighbors[i].distance != b.neighbors[i].distance) {
      return ::testing::AssertionFailure()
             << "neighbor " << i << ": (" << a.neighbors[i].id << ", "
             << a.neighbors[i].distance << ") vs (" << b.neighbors[i].id
             << ", " << b.neighbors[i].distance << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

class FilterGateDifferentialTest
    : public ::testing::TestWithParam<HistogramTable::Kind> {};

TEST_P(FilterGateDifferentialTest, GatedEqualsAlwaysEqualsScan) {
  ThreadPool pool(2);
  uint64_t skipped = 0;
  for (const Case& c : AdversarialCases()) {
    SCOPED_TRACE(c.name);
    const PairwiseEdrMatrix matrix =
        PairwiseEdrMatrix::Build(c.db, c.epsilon, 12);
    for (const auto& order : AllPruneOrders()) {
      CombinedOptions options;
      options.order = order;
      options.histogram_kind = GetParam();
      options.max_triangle = 12;
      const CombinedKnnSearcher gated(c.db, c.epsilon, options, matrix);
      options.lazy_filters = LazyFilters::kAlways;
      const CombinedKnnSearcher always(c.db, c.epsilon, options, matrix);
      SCOPED_TRACE(gated.name());
      for (size_t qi = 0; qi < c.queries.size(); ++qi) {
        const Trajectory& query = c.queries[qi];
        SCOPED_TRACE("query " + std::to_string(qi));
        for (const size_t k : c.ks) {
          const KnnResult scan =
              SequentialScanKnn(c.db, query, k, c.epsilon);
          for (const unsigned workers : {1u, 3u}) {
            KnnOptions ko;
            ko.intra_query_workers = workers;
            ko.pool = &pool;
            const KnnResult g = gated.Knn(query, k, ko);
            EXPECT_TRUE(Identical(always.Knn(query, k, ko), g))
                << "k " << k << " workers " << workers;
            // Ties at the k-th distance may keep different ids than the
            // scan; the distances, and with k >= n the whole set, match.
            EXPECT_TRUE(SameKnnDistances(scan, g)) << "k " << k;
            if (k >= c.db.size()) {
              EXPECT_EQ(ByDistanceThenId(scan), ByDistanceThenId(g));
            }
            EXPECT_TRUE(g.stats.stages.Conserves(c.db.size()));
            skipped += g.stats.stages.qgram_skipped +
                       g.stats.stages.triangle_skipped;
          }
        }
        for (const int radius : c.radii) {
          const KnnResult expected =
              SequentialScanRange(c.db, query, radius, c.epsilon);
          const KnnResult g = gated.Range(query, radius);
          EXPECT_TRUE(Identical(expected, g)) << "radius " << radius;
          EXPECT_TRUE(Identical(expected, always.Range(query, radius)))
              << "radius " << radius;
          EXPECT_TRUE(g.stats.stages.Conserves(c.db.size()));
          skipped += g.stats.stages.qgram_skipped +
                     g.stats.stages.triangle_skipped;
        }
      }
    }
  }
  // The oracle covers skipped tests, not only the warm-up.
  if constexpr (kObsEnabled) {
    EXPECT_GT(skipped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, FilterGateDifferentialTest,
                         ::testing::Values(HistogramTable::Kind::k2D,
                                           HistogramTable::Kind::k1D));

// ---------------------------------------------------------------------------
// Counters: reproducible, fused == solo, annotations only where gated.
// ---------------------------------------------------------------------------

const TrajectoryDataset& WalkDb() {
  static const TrajectoryDataset db = testutil::SmallDataset(911, 1500, 20,
                                                             90);
  return db;
}

std::vector<Trajectory> WalkQueries() {
  return testutil::MakeQueries(WalkDb(), 912, 6);
}

bool SameCounters(const StageCounters& a, const StageCounters& b) {
  return a.ToJson() == b.ToJson();
}

TEST(FilterGateTest, BudgetOneCountersAreReproducibleAndFusedEqualsSolo) {
  CombinedOptions options;
  options.max_triangle = 20;
  const CombinedKnnSearcher searcher(WalkDb(), 0.25, options);
  const std::vector<Trajectory> queries = WalkQueries();
  std::vector<const Trajectory*> group;
  for (const Trajectory& q : queries) group.push_back(&q);
  KnnOptions ko;
  ko.intra_query_workers = 1;
  const std::vector<KnnResult> fused = searcher.KnnFused(group, 12, ko);
  uint64_t skipped = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const KnnResult first = searcher.Knn(queries[i], 12, ko);
    const KnnResult second = searcher.Knn(queries[i], 12, ko);
    EXPECT_TRUE(SameCounters(first.stats.stages, second.stats.stages))
        << first.stats.stages.ToJson() << " vs "
        << second.stats.stages.ToJson();
    EXPECT_TRUE(SameCounters(first.stats.stages, fused[i].stats.stages))
        << first.stats.stages.ToJson() << " vs "
        << fused[i].stats.stages.ToJson();
    EXPECT_TRUE(Identical(first, fused[i]));
    skipped += first.stats.stages.qgram_skipped +
               first.stats.stages.triangle_skipped;
  }
  // On 1500 walks the gate gets past its warm-up and skips tests; the
  // counters exist only when observability is compiled in.
  if constexpr (kObsEnabled) {
    EXPECT_GT(skipped, 0u);
  } else {
    EXPECT_EQ(skipped, 0u);
  }
}

TEST(FilterGateTest, AlwaysOnChainSkipsNothing) {
  CombinedOptions options;
  options.max_triangle = 20;
  options.lazy_filters = LazyFilters::kAlways;
  const CombinedKnnSearcher searcher(WalkDb(), 0.25, options);
  for (const Trajectory& q : WalkQueries()) {
    const StageCounters s = searcher.Knn(q, 12).stats.stages;
    EXPECT_EQ(s.qgram_skipped, 0u);
    EXPECT_EQ(s.triangle_skipped, 0u);
    const StageCounters r = searcher.Range(q, 10).stats.stages;
    EXPECT_EQ(r.qgram_skipped, 0u);
    EXPECT_EQ(r.triangle_skipped, 0u);
  }
}

TEST(FilterGateTest, SkippedTestsAreExported) {
  RegisterStandardMetrics();
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t before = registry.Counter("query.qgram_skipped").Load();
  CombinedOptions options;
  options.max_triangle = 20;
  const CombinedKnnSearcher searcher(WalkDb(), 0.25, options);
  uint64_t skipped = 0;
  for (const Trajectory& q : WalkQueries()) {
    skipped += searcher.Knn(q, 12).stats.stages.qgram_skipped;
  }
  EXPECT_EQ(registry.Counter("query.qgram_skipped").Load() - before, skipped);
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  if constexpr (kObsEnabled) {
    EXPECT_NE(text.find("edr_query_qgram_skipped_total"), std::string::npos);
    EXPECT_NE(text.find("edr_query_triangle_skipped_total"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace edr
