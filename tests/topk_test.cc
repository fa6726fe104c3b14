#include "query/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "query/knn.h"

namespace edr {
namespace {

std::vector<StreamingOrder<int>::Entry> RandomEntries(uint64_t seed,
                                                      size_t n,
                                                      int key_range) {
  // A small key range forces many ties, exercising the (key, id)
  // tie-break that the parallel refinement's determinism relies on.
  Rng rng(seed);
  std::vector<StreamingOrder<int>::Entry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i] = {static_cast<int>(rng.UniformInt(0, key_range)),
                  static_cast<uint32_t>(i)};
  }
  return entries;
}

std::vector<StreamingOrder<int>::Entry> FullySorted(
    std::vector<StreamingOrder<int>::Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const StreamingOrder<int>::Entry& a,
               const StreamingOrder<int>::Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.id < b.id;
            });
  return entries;
}

TEST(StreamingOrderTest, FullDrainMatchesFullSortIncludingTies) {
  for (const size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 700u, 2048u}) {
    auto entries = RandomEntries(/*seed=*/n + 7, n, /*key_range=*/9);
    const auto expected = FullySorted(entries);
    StreamingOrder<int> order(std::move(entries));
    StreamingOrder<int>::Entry e;
    size_t i = 0;
    while (order.Next(&e)) {
      ASSERT_LT(i, expected.size());
      EXPECT_EQ(e.key, expected[i].key) << "n=" << n << " i=" << i;
      EXPECT_EQ(e.id, expected[i].id) << "n=" << n << " i=" << i;
      ++i;
    }
    EXPECT_EQ(i, expected.size());
  }
}

TEST(StreamingOrderTest, PartialDrainMatchesSortedPrefix) {
  const size_t n = 5000;
  auto entries = RandomEntries(/*seed=*/11, n, /*key_range=*/100);
  const auto expected = FullySorted(entries);
  StreamingOrder<int> order(std::move(entries));
  StreamingOrder<int>::Entry e;
  for (size_t i = 0; i < 137; ++i) {
    ASSERT_TRUE(order.Next(&e));
    EXPECT_EQ(e.key, expected[i].key);
    EXPECT_EQ(e.id, expected[i].id);
  }
}

TEST(StreamingOrderTest, FromKeysUsesIndexAsId) {
  const std::vector<double> keys = {3.0, 1.0, 2.0, 1.0};
  StreamingOrder<double> order = StreamingOrder<double>::FromKeys(keys);
  StreamingOrder<double>::Entry e;
  std::vector<uint32_t> ids;
  while (order.Next(&e)) ids.push_back(e.id);
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 3, 2, 0}));
}

TEST(BoundedTopKTest, MatchesKnnResultListWithTies) {
  // Quantized distances force many ties; with order = offer index the
  // selection must keep exactly what KnnResultList keeps (earlier offers
  // win ties) in exactly its order.
  Rng rng(99);
  for (const size_t k : {1u, 4u, 10u}) {
    KnnResultList reference(k);
    BoundedTopK streaming(k);
    for (size_t i = 0; i < 500; ++i) {
      const uint32_t id = static_cast<uint32_t>(i);
      const double dist = static_cast<double>(rng.UniformInt(0, 20));
      reference.Offer(id, dist);
      streaming.Offer(id, dist, /*order=*/i);
    }
    const auto expected = std::move(reference).TakeNeighbors();
    const auto actual = std::move(streaming).TakeSortedNeighbors();
    ASSERT_EQ(expected.size(), actual.size()) << "k=" << k;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].id, actual[i].id) << "k=" << k << " i=" << i;
      EXPECT_EQ(expected[i].distance, actual[i].distance);
    }
  }
}

TEST(BoundedTopKTest, ThresholdLifecycle) {
  BoundedTopK empty(0);
  EXPECT_EQ(empty.Threshold(), -std::numeric_limits<double>::infinity());

  BoundedTopK topk(2);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<double>::infinity());
  topk.Offer(0, 5.0, 0);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<double>::infinity());
  topk.Offer(1, 3.0, 1);
  EXPECT_TRUE(topk.full());
  EXPECT_EQ(topk.Threshold(), 5.0);
  topk.Offer(2, 4.0, 2);
  EXPECT_EQ(topk.Threshold(), 4.0);
  // An exact tie with the current k-th must be rejected (later order).
  topk.Offer(3, 4.0, 3);
  EXPECT_EQ(topk.Threshold(), 4.0);
  const auto neighbors = std::move(topk).TakeSortedNeighbors();
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].id, 1u);
  EXPECT_EQ(neighbors[1].id, 2u);
}

/// Offers `dists[i]` (rank i) into a SharedTopK from `slots` threads, slot
/// s taking ranks s, s + slots, ... in descending rank order, so no slot
/// sees its offers in visit order.
void OfferFromSlots(SharedTopK* topk, const std::vector<double>& dists,
                    size_t slots) {
  std::vector<std::thread> threads;
  for (size_t slot = 0; slot < slots; ++slot) {
    threads.emplace_back([topk, &dists, slots, slot] {
      std::vector<size_t> ranks;
      for (size_t i = slot; i < dists.size(); i += slots) ranks.push_back(i);
      std::reverse(ranks.begin(), ranks.end());
      for (const size_t i : ranks) {
        topk->Offer(static_cast<uint32_t>(i), dists[i], /*order=*/i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(SharedTopKTest, PublishesGlobalKthAcrossSlots) {
  // Two slots, each offering fewer than k items but k together: a per-slot
  // heap would never fill, the shared one publishes the global k-th.
  SharedTopK topk(4);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<double>::infinity());
  topk.Offer(0, 6.0, 0);  // slot 0
  topk.Offer(1, 2.0, 1);  // slot 1
  topk.Offer(2, 9.0, 2);  // slot 0
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<double>::infinity());
  topk.Offer(3, 4.0, 3);  // slot 1
  EXPECT_EQ(topk.Threshold(), 9.0);
  topk.Offer(4, 5.0, 4);  // slot 0
  EXPECT_EQ(topk.Threshold(), 6.0);

  EXPECT_EQ(SharedTopK(0).Threshold(),
            -std::numeric_limits<double>::infinity());
}

TEST(SharedTopKTest, ConcurrentSlotsMatchSequentialHeap) {
  Rng rng(123);
  std::vector<double> dists(400);
  for (double& d : dists) d = static_cast<double>(rng.UniformInt(0, 30));
  for (const size_t k : {1u, 7u, 25u}) {
    // n = 30 with two slots: each slot holds 15 < k = 25 items, together
    // more than k.
    for (const size_t n : {size_t{30}, dists.size()}) {
      const std::vector<double> offers(dists.begin(), dists.begin() + n);
      BoundedTopK single(k);
      for (size_t i = 0; i < n; ++i) {
        single.Offer(static_cast<uint32_t>(i), offers[i], i);
      }
      const double expected_kth = single.Threshold();
      const auto expected = std::move(single).TakeSortedNeighbors();

      for (const size_t slots : {2u, 3u, 8u}) {
        SharedTopK shared(k);
        OfferFromSlots(&shared, offers, slots);
        EXPECT_EQ(shared.Threshold(), expected_kth)
            << "k=" << k << " n=" << n << " slots=" << slots;
        const auto merged = std::move(shared).TakeSortedNeighbors();
        ASSERT_EQ(expected.size(), merged.size())
            << "k=" << k << " n=" << n << " slots=" << slots;
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(expected[i].id, merged[i].id);
          EXPECT_EQ(expected[i].distance, merged[i].distance);
        }
      }
    }
  }
}

// The range sink keeps every offer, whatever the offer order, and drains
// it in the (distance, id) order every range query reports; its threshold
// is the radius throughout.
TEST(RadiusSinkTest, KeepsEveryOfferSortedByDistanceThenId) {
  Rng rng(7);
  std::vector<Neighbor> base(300);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = {static_cast<uint32_t>(i),
               static_cast<double>(rng.UniformInt(0, 12))};
  }
  std::vector<Neighbor> expected = base;
  SortNeighborsAscending(&expected);
  EXPECT_TRUE(std::is_sorted(expected.begin(), expected.end(),
                             [](const Neighbor& a, const Neighbor& b) {
                               if (a.distance != b.distance) {
                                 return a.distance < b.distance;
                               }
                               return a.id < b.id;
                             }));

  RadiusSink sink(12);
  EXPECT_EQ(sink.Threshold(), 12.0);
  // Offer back to front so the drain order cannot come from the offers.
  for (size_t i = base.size(); i-- > 0;) {
    sink.Offer(base[i].id, base[i].distance, i);
    EXPECT_EQ(sink.Threshold(), 12.0);
  }
  const std::vector<Neighbor> got = std::move(sink).TakeSortedNeighbors();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "i=" << i;
  }
}

}  // namespace
}  // namespace edr
