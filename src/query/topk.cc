#include "query/topk.h"

#include <algorithm>

namespace edr {

void BoundedTopK::Offer(uint32_t id, double distance, size_t order) {
  if (k_ == 0) return;
  const Item item{distance, order, id};
  if (heap_.size() < k_) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), HeapLess);
    return;
  }
  if (!HeapLess(item, heap_.front())) return;  // Not better than the worst.
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess);
  heap_.back() = item;
  std::push_heap(heap_.begin(), heap_.end(), HeapLess);
}

std::vector<Neighbor> BoundedTopK::TakeSortedNeighbors() && {
  // sort_heap with the max-heap comparator leaves ascending (distance,
  // order); the heap never holds more than k items.
  std::sort_heap(heap_.begin(), heap_.end(), HeapLess);
  std::vector<Neighbor> out;
  out.reserve(heap_.size());
  for (const Item& item : heap_) out.push_back({item.id, item.distance});
  return out;
}

void SortNeighborsAscending(std::vector<Neighbor>* neighbors) {
  std::sort(neighbors->begin(), neighbors->end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
}

}  // namespace edr
