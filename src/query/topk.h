#ifndef EDR_QUERY_TOPK_H_
#define EDR_QUERY_TOPK_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "query/knn.h"

namespace edr {

/// Lazily drains candidate entries in ascending (key, id) order without
/// ever sorting the whole array — the streaming replacement for the
/// full `std::sort` of the n-element bound/count/order arrays on the
/// searchers' filter paths.
///
/// Implementation: incremental quickselect. A stack of segment boundaries
/// partitions the tail of the array into runs known to be pairwise ordered
/// (everything in a run <= everything in later runs). Serving the next
/// element splits the front run with `std::nth_element` until it shrinks
/// to a leaf, sorts the leaf once, and streams it out. Draining the first
/// m elements costs O(n + m log n); a full drain degrades gracefully to
/// O(n log n), the cost of the sort it replaces.
///
/// The id participates in the comparison, so the drain order is a total
/// order — deterministic across platforms and worker counts even when
/// keys tie. This canonical (key, id) tie-break is what makes the
/// intra-query parallel refinement bit-identical to the sequential scan.
template <typename Key>
class StreamingOrder {
 public:
  struct Entry {
    Key key;
    uint32_t id;
  };

  explicit StreamingOrder(std::vector<Entry> entries)
      : entries_(std::move(entries)) {
    stack_.push_back(entries_.size());
  }

  /// Builds the identity entries (key = value at index id) from a dense
  /// per-id key array.
  static StreamingOrder FromKeys(const std::vector<Key>& keys) {
    std::vector<Entry> entries(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      entries[i] = {keys[i], static_cast<uint32_t>(i)};
    }
    return StreamingOrder(std::move(entries));
  }

  size_t size() const { return entries_.size(); }

  /// Yields the next entry in ascending (key, id) order; false when the
  /// array is drained.
  bool Next(Entry* out) {
    if (pos_ >= entries_.size()) return false;
    if (pos_ == sorted_end_) Advance();
    *out = entries_[pos_++];
    return true;
  }

 private:
  static bool Less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  /// Establishes the next sorted run starting at pos_: splits the front
  /// segment down to a leaf, then sorts the leaf.
  void Advance() {
    // Leaf size: one cache line's worth of entries is plenty — small
    // enough that early-stopping scans never over-sort, large enough to
    // amortize the nth_element passes.
    constexpr size_t kLeaf = 64;
    while (stack_.back() == pos_) stack_.pop_back();
    size_t end = stack_.back();
    while (end - pos_ > kLeaf) {
      const size_t mid = pos_ + (end - pos_) / 2;
      std::nth_element(entries_.begin() + static_cast<ptrdiff_t>(pos_),
                       entries_.begin() + static_cast<ptrdiff_t>(mid),
                       entries_.begin() + static_cast<ptrdiff_t>(end), Less);
      // [pos_, mid) <= entries_[mid] <= (mid, end): the right part becomes
      // a deferred segment, the left part is refined further.
      stack_.push_back(mid);
      end = mid;
    }
    std::sort(entries_.begin() + static_cast<ptrdiff_t>(pos_),
              entries_.begin() + static_cast<ptrdiff_t>(end), Less);
    sorted_end_ = end;
  }

  std::vector<Entry> entries_;
  std::vector<size_t> stack_;  ///< deferred segment ends, ascending bottom-up
  size_t pos_ = 0;             ///< next entry to serve
  size_t sorted_end_ = 0;      ///< entries in [pos_, sorted_end_) are sorted
};

/// A bounded selection structure keeping the k lexicographically smallest
/// (distance, order) pairs offered, as a max-heap — the streaming
/// replacement for "collect everything, sort, truncate".
///
/// `order` is the candidate's rank in the canonical visit order; using it
/// as the tie-break reproduces exactly the contents a sequential
/// KnnResultList would hold after offering the same exact distances in
/// visit order (earlier offers win ties), whatever order the offers
/// arrive in — which is what makes the parallel refinement deterministic.
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k) : k_(k) {}

  /// Offers a candidate with its exact distance and canonical visit rank.
  void Offer(uint32_t id, double distance, size_t order);

  bool full() const { return heap_.size() >= k_ && k_ > 0; }
  size_t size() const { return heap_.size(); }

  /// Distance of the current k-th best, +infinity while not yet full
  /// (-infinity for k == 0, which can never accept anything).
  double Threshold() const {
    if (k_ == 0) return -std::numeric_limits<double>::infinity();
    if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
    return heap_.front().distance;
  }

  /// Drains this structure into ascending (distance, order) neighbors.
  std::vector<Neighbor> TakeSortedNeighbors() &&;

 private:
  struct Item {
    double distance;
    size_t order;
    uint32_t id;
  };

  static bool HeapLess(const Item& a, const Item& b) {
    // Max-heap on (distance, order): the root is the lex-largest kept.
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.order < b.order;
  }

  size_t k_;
  std::vector<Item> heap_;
};

/// One query's top-k, shared by all of its refinement workers: a
/// mutex-guarded BoundedTopK that, after each offer, publishes the exact
/// k-th distance of everything offered so far. Workers thus prune against
/// the threshold a sequential scan would hold after the same offers,
/// rather than against the k-th of their own shard. Only candidates whose
/// bounded DP finished within the threshold are offered — a few percent of
/// the DPs — so the lock is cold.
///
/// The kept set is the k lexicographically smallest (distance, order)
/// pairs offered, whatever thread offered them in whatever interleaving:
/// exactly what one sequential BoundedTopK fed the same offers would keep.
class SharedTopK {
 public:
  explicit SharedTopK(size_t k) : topk_(k), kth_(topk_.Threshold()) {}

  /// The k-th distance of everything offered so far; +infinity before k
  /// offers, -infinity for k == 0. A lock-free relaxed read: the value
  /// only ever falls, so a stale read is larger than the current one and
  /// merely weakens a prune.
  double Threshold() const { return kth_.load(std::memory_order_relaxed); }

  void Offer(uint32_t id, double distance, size_t order) {
    std::lock_guard<std::mutex> lock(mu_);
    topk_.Offer(id, distance, order);
    kth_.store(topk_.Threshold(), std::memory_order_relaxed);
  }

  /// Call once every worker has finished offering.
  std::vector<Neighbor> TakeSortedNeighbors() && {
    return std::move(topk_).TakeSortedNeighbors();
  }

 private:
  std::mutex mu_;
  BoundedTopK topk_;  // guarded by mu_
  std::atomic<double> kth_;
};

/// Sorts neighbors ascending by (distance, id) — the order every range
/// query reports.
void SortNeighborsAscending(std::vector<Neighbor>* neighbors);

/// The range-query counterpart of SharedTopK, for the same refine drivers:
/// the threshold is the fixed radius and every offer is kept. Only exact
/// distances within the radius are offered (a refinement bounded by the
/// radius abandons everything beyond it), so the kept set is the range
/// answer whatever the schedule, and draining sorts it by (distance, id).
class RadiusSink {
 public:
  explicit RadiusSink(int radius) : radius_(static_cast<double>(radius)) {}

  double Threshold() const { return radius_; }

  void Offer(uint32_t id, double distance, size_t /*order*/) {
    std::lock_guard<std::mutex> lock(mu_);
    neighbors_.push_back({id, distance});
  }

  /// Call once every worker has finished offering.
  std::vector<Neighbor> TakeSortedNeighbors() && {
    SortNeighborsAscending(&neighbors_);
    return std::move(neighbors_);
  }

 private:
  const double radius_;
  std::mutex mu_;
  std::vector<Neighbor> neighbors_;  // guarded by mu_
};

/// What one refine pass selects: the k nearest candidates (a k-NN query,
/// through SharedTopK) or every candidate within a fixed radius (a range
/// query, through RadiusSink). The two differ only in the threshold the
/// filters prune against — the running k-th distance or the radius.
struct RefineTarget {
  bool range = false;
  size_t k = 0;
  int radius = 0;

  static RefineTarget Nearest(size_t k) { return {false, k, 0}; }
  static RefineTarget Within(int radius) { return {true, 0, radius}; }
};

}  // namespace edr

#endif  // EDR_QUERY_TOPK_H_
