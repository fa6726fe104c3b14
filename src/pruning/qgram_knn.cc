#include "pruning/qgram_knn.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/cpu.h"
#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "pruning/qgram.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"
#include "query/topk.h"

namespace edr {

const char* QgramVariantName(QgramVariant variant) {
  switch (variant) {
    case QgramVariant::kRtree2D: return "PR";
    case QgramVariant::kBtree1D: return "PB";
    case QgramVariant::kMerge2D: return "PS2";
    case QgramVariant::kMerge1D: return "PS1";
  }
  return "?";
}

QgramKnnSearcher::QgramKnnSearcher(const TrajectoryDataset& db,
                                   double epsilon, int q,
                                   QgramVariant variant)
    : db_(db), epsilon_(epsilon), q_(q), variant_(variant) {
  switch (variant_) {
    case QgramVariant::kRtree2D:
      feature_key_ = "qgram.means2d.raw/q=" + std::to_string(q_);
      break;
    case QgramVariant::kBtree1D:
      feature_key_ = "qgram.means1d.raw/q=" + std::to_string(q_);
      break;
    case QgramVariant::kMerge2D:
      feature_key_ = "qgram.means2d.sorted/q=" + std::to_string(q_);
      break;
    case QgramVariant::kMerge1D:
      feature_key_ = "qgram.means1d.sorted/q=" + std::to_string(q_);
      break;
  }
  switch (variant_) {
    case QgramVariant::kRtree2D: {
      rtree_ = std::make_unique<RStarTree>();
      for (const Trajectory& t : db_) {
        for (const Point2& mean : MeanValueQgrams(t, q_)) {
          rtree_->Insert(mean, t.id());
        }
      }
      break;
    }
    case QgramVariant::kBtree1D: {
      btree_ = std::make_unique<BPlusTree>();
      for (const Trajectory& t : db_) {
        for (const double mean : MeanValueQgrams1D(t, q_, /*use_x=*/true)) {
          btree_->Insert(mean, t.id());
        }
      }
      break;
    }
    case QgramVariant::kMerge2D: {
      means_ = std::make_unique<QgramMeansTable>(db_, q_, /*dims=*/2);
      break;
    }
    case QgramVariant::kMerge1D: {
      means_ = std::make_unique<QgramMeansTable>(db_, q_, /*dims=*/1);
      break;
    }
  }
}

std::vector<size_t> QgramKnnSearcher::MatchCounts(
    const Trajectory& query, const KnnOptions& options) const {
  std::vector<size_t> counts(db_.size(), 0);
  switch (variant_) {
    case QgramVariant::kRtree2D: {
      // For each query-gram mean, probe the tree with the epsilon square
      // and count each trajectory at most once per query gram (a gram of Q
      // either matches some gram of S or it does not). Probes mutate the
      // shared last_gram array, so this variant counts sequentially.
      std::vector<size_t> last_gram(db_.size(), static_cast<size_t>(-1));
      const auto means_ptr = GetOrBuildFeature<std::vector<Point2>>(
          options.feature_cache, feature_key_, query,
          [&] { return MeanValueQgrams(query, q_); });
      const std::vector<Point2>& means = *means_ptr;
      for (size_t g = 0; g < means.size(); ++g) {
        rtree_->SearchRange(Rect::Around(means[g], epsilon_),
                            [&](uint32_t id) {
                              if (last_gram[id] != g) {
                                last_gram[id] = g;
                                ++counts[id];
                              }
                            });
      }
      break;
    }
    case QgramVariant::kBtree1D: {
      std::vector<size_t> last_gram(db_.size(), static_cast<size_t>(-1));
      const auto means_ptr = GetOrBuildFeature<std::vector<double>>(
          options.feature_cache, feature_key_, query,
          [&] { return MeanValueQgrams1D(query, q_, /*use_x=*/true); });
      const std::vector<double>& means = *means_ptr;
      for (size_t g = 0; g < means.size(); ++g) {
        btree_->SearchRange(means[g] - epsilon_, means[g] + epsilon_,
                            [&](double, uint32_t id) {
                              if (last_gram[id] != g) {
                                last_gram[id] = g;
                                ++counts[id];
                              }
                            });
      }
      break;
    }
    case QgramVariant::kMerge2D: {
      const auto means_ptr = GetOrBuildFeature<std::vector<Point2>>(
          options.feature_cache, feature_key_, query, [&] {
            std::vector<Point2> m = MeanValueQgrams(query, q_);
            SortMeans(m);
            return m;
          });
      const std::vector<Point2>& means = *means_ptr;
      // Each trajectory's count reads only its own flat slice and writes
      // only its own output element — shard the ids over the pool.
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        counts[i] =
            means_->CountMatches2D(means, epsilon_, static_cast<uint32_t>(i));
      });
      break;
    }
    case QgramVariant::kMerge1D: {
      const auto means_ptr = GetOrBuildFeature<std::vector<double>>(
          options.feature_cache, feature_key_, query, [&] {
            std::vector<double> m = MeanValueQgrams1D(query, q_, /*use_x=*/true);
            std::sort(m.begin(), m.end());
            return m;
          });
      const std::vector<double>& means = *means_ptr;
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        counts[i] =
            means_->CountMatches1D(means, epsilon_, static_cast<uint32_t>(i));
      });
      break;
    }
  }
  return counts;
}

KnnResult QgramKnnSearcher::Knn(const Trajectory& query, size_t k,
                                const KnnOptions& options) const {
  // k = 0 returns nothing; skip the scan (and the -inf bestSoFar the
  // threshold arithmetic cannot represent).
  if (k == 0) return EmptyKnnResult(db_.size());
  return Search(query, RefineTarget::Nearest(k), options);
}

KnnResult QgramKnnSearcher::Range(const Trajectory& query, int radius) const {
  return Search(query, RefineTarget::Within(radius), KnnOptions{});
}

KnnResult QgramKnnSearcher::Search(const Trajectory& query,
                                   const RefineTarget& target,
                                   const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  RecordSchedBudget(trace.get(), options);
  TraceSpan filter_span(trace.get(), "match_count");
  const std::vector<size_t> counts = MatchCounts(query, options);
  filter_span.End();
  return RefineWithCounts(query, target, options, counts, std::move(trace),
                          SecondsSince(start));
}

std::vector<KnnResult> QgramKnnSearcher::KnnFused(
    const std::vector<const Trajectory*>& queries, size_t k,
    const KnnOptions& options) const {
  const size_t group = queries.size();
  if (k == 0) {
    return std::vector<KnnResult>(group, EmptyKnnResult(db_.size()));
  }
  std::vector<KnnResult> results(group);
  if (group == 0) return results;
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::shared_ptr<QueryTrace>> traces(group);
  std::vector<int32_t> span_ids(group, -1);
  for (size_t f = 0; f < group; ++f) {
    traces[f] = MakeQueryTrace();
    RecordSchedBudget(traces[f].get(), options);
    if (traces[f] != nullptr) span_ids[f] = traces[f]->Begin("fused_sweep");
  }

  // Merge variants: one streaming pass over the flat posting arrays per
  // id-shard — each trajectory's slice is merge-counted against every
  // member while it is cache-hot, members chunked to the kernel group
  // width. Tree variants: one probe pass over the shared read-only index —
  // every member's grams are probed with private (per-member) dedup and
  // count state, the whole group's probes sorted by coordinate so
  // neighboring probes descend warm tree paths.
  std::vector<std::vector<size_t>> counts(
      group, std::vector<size_t>(db_.size(), 0));
  if (variant_ == QgramVariant::kRtree2D) {
    std::vector<std::shared_ptr<const std::vector<Point2>>> features(group);
    for (size_t f = 0; f < group; ++f) {
      features[f] = GetOrBuildFeature<std::vector<Point2>>(
          options.feature_cache, feature_key_, *queries[f],
          [&] { return MeanValueQgrams(*queries[f], q_); });
    }
    // Per-member probe state keeps the shared tree re-entrant: a gram of
    // member f deduplicates only against f's own last-gram array, exactly
    // as f's solo MatchCounts pass would.
    std::vector<std::vector<size_t>> last_gram(
        group, std::vector<size_t>(db_.size(), static_cast<size_t>(-1)));
    struct Probe {
      double key;
      uint32_t f;
      uint32_t g;
    };
    std::vector<Probe> probes;
    for (uint32_t f = 0; f < group; ++f) {
      const std::vector<Point2>& means = *features[f];
      for (uint32_t g = 0; g < means.size(); ++g) {
        probes.push_back({means[g].x, f, g});
      }
    }
    // Deterministic coordinate order; each (member, gram) appears exactly
    // once, so any probe order yields the same counts.
    std::sort(probes.begin(), probes.end(),
              [](const Probe& a, const Probe& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.f != b.f ? a.f < b.f : a.g < b.g;
              });
    for (const Probe& p : probes) {
      const Point2& mean = (*features[p.f])[p.g];
      std::vector<size_t>& lg = last_gram[p.f];
      std::vector<size_t>& cnt = counts[p.f];
      const size_t g = p.g;
      rtree_->SearchRange(Rect::Around(mean, epsilon_), [&](uint32_t id) {
        if (lg[id] != g) {
          lg[id] = g;
          ++cnt[id];
        }
      });
    }
  } else if (variant_ == QgramVariant::kBtree1D) {
    std::vector<std::shared_ptr<const std::vector<double>>> features(group);
    for (size_t f = 0; f < group; ++f) {
      features[f] = GetOrBuildFeature<std::vector<double>>(
          options.feature_cache, feature_key_, *queries[f], [&] {
            return MeanValueQgrams1D(*queries[f], q_, /*use_x=*/true);
          });
    }
    std::vector<std::vector<size_t>> last_gram(
        group, std::vector<size_t>(db_.size(), static_cast<size_t>(-1)));
    struct Probe {
      double key;
      uint32_t f;
      uint32_t g;
    };
    std::vector<Probe> probes;
    for (uint32_t f = 0; f < group; ++f) {
      const std::vector<double>& means = *features[f];
      for (uint32_t g = 0; g < means.size(); ++g) {
        probes.push_back({means[g], f, g});
      }
    }
    std::sort(probes.begin(), probes.end(),
              [](const Probe& a, const Probe& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.f != b.f ? a.f < b.f : a.g < b.g;
              });
    for (const Probe& p : probes) {
      std::vector<size_t>& lg = last_gram[p.f];
      std::vector<size_t>& cnt = counts[p.f];
      const size_t g = p.g;
      btree_->SearchRange(p.key - epsilon_, p.key + epsilon_,
                          [&](double, uint32_t id) {
                            if (lg[id] != g) {
                              lg[id] = g;
                              ++cnt[id];
                            }
                          });
    }
  } else if (variant_ == QgramVariant::kMerge2D) {
    std::vector<std::shared_ptr<const std::vector<Point2>>> features(group);
    for (size_t f = 0; f < group; ++f) {
      features[f] = GetOrBuildFeature<std::vector<Point2>>(
          options.feature_cache, feature_key_, *queries[f], [&] {
            std::vector<Point2> m = MeanValueQgrams(*queries[f], q_);
            SortMeans(m);
            return m;
          });
    }
    for (size_t base = 0; base < group; base += kMaxFusionGroup) {
      const size_t chunk = std::min(kMaxFusionGroup, group - base);
      std::vector<const std::vector<Point2>*> qms(chunk);
      for (size_t c = 0; c < chunk; ++c) qms[c] = features[base + c].get();
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        size_t tmp[kMaxFusionGroup];
        means_->CountMatchesFused2D(qms, epsilon_,
                                    static_cast<uint32_t>(i), tmp);
        for (size_t c = 0; c < chunk; ++c) counts[base + c][i] = tmp[c];
      });
    }
  } else {
    std::vector<std::shared_ptr<const std::vector<double>>> features(group);
    for (size_t f = 0; f < group; ++f) {
      features[f] = GetOrBuildFeature<std::vector<double>>(
          options.feature_cache, feature_key_, *queries[f], [&] {
            std::vector<double> m =
                MeanValueQgrams1D(*queries[f], q_, /*use_x=*/true);
            std::sort(m.begin(), m.end());
            return m;
          });
    }
    for (size_t base = 0; base < group; base += kMaxFusionGroup) {
      const size_t chunk = std::min(kMaxFusionGroup, group - base);
      std::vector<const std::vector<double>*> qms(chunk);
      for (size_t c = 0; c < chunk; ++c) qms[c] = features[base + c].get();
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        size_t tmp[kMaxFusionGroup];
        means_->CountMatchesFused1D(qms, epsilon_,
                                    static_cast<uint32_t>(i), tmp);
        for (size_t c = 0; c < chunk; ++c) counts[base + c][i] = tmp[c];
      });
    }
  }
  for (size_t f = 0; f < group; ++f) {
    if (traces[f] != nullptr) traces[f]->End(span_ids[f]);
  }
  const double filter_seconds = SecondsSince(start);
  for (size_t f = 0; f < group; ++f) {
    results[f] = RefineWithCounts(*queries[f], RefineTarget::Nearest(k),
                                  options, counts[f], std::move(traces[f]),
                                  filter_seconds);
  }
  return results;
}

KnnResult QgramKnnSearcher::RefineWithCounts(
    const Trajectory& query, const RefineTarget& target,
    const KnnOptions& options, const std::vector<size_t>& counts,
    std::shared_ptr<QueryTrace> trace, double filter_seconds) const {
  const auto refine_entry = std::chrono::steady_clock::now();
  TraceSpan order_span(trace.get(), "order_build");
  // Canonical visit order: descending count, ties by ascending id —
  // drained lazily so only the prefix the scan actually visits is ordered.
  std::vector<StreamingOrder<long>::Entry> entries(db_.size());
  for (size_t i = 0; i < db_.size(); ++i) {
    entries[i] = {-static_cast<long>(counts[i]), static_cast<uint32_t>(i)};
  }
  order_span.End();
  // Candidate ordering belongs to the filter phase in the reported split.
  const auto order_done = std::chrono::steady_clock::now();
  filter_seconds +=
      std::chrono::duration<double>(order_done - refine_entry).count();

  const EdrKernel kernel = DefaultEdrKernel();
  const long query_len = static_cast<long>(query.size());
  RefineLedger ledger(options);

  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    const Trajectory& s = db_[id];
    StageCounters& st = ledger.stages(slot);
    st.Bump(&StageCounters::considered);
    if (!std::isinf(threshold)) {
      // Theorems 1 and 3: fewer matching grams than the per-candidate
      // threshold means EDR(Q, S) > threshold (bestSoFar or the radius).
      const long th = QgramCountThreshold(query.size(), s.size(), q_,
                                          static_cast<long>(threshold));
      if (static_cast<long>(counts[id]) < th) {
        st.Bump(&StageCounters::qgram_pruned);
        return false;
      }
    }
    // Refinement with the threshold as an early-abandon bound: exact when
    // the candidate could enter the result, otherwise some lower bound
    // > threshold that the result rejects just the same.
    const int bound = EdrBoundFromKthDistance(threshold);
    const int d = EdrDistanceBoundedWith(kernel, ThreadLocalEdrScratch(),
                                         query, s, epsilon_, bound);
    ledger.CountDp(slot, query.size(), s.size());
    if (d > bound) {
      st.Bump(&StageCounters::dp_early_abandoned);
      return false;
    }
    *dist = static_cast<double>(d);
    return true;
  };
  // Smallest Theorem-3 threshold any remaining trajectory can have:
  // lengths are at least |Q| inside max(|Q|, |S|). Counts only decrease
  // from here, so once the count falls below it, everything remaining is
  // pruned and the whole scan stops.
  const auto stop = [&](long key, double threshold) {
    if (std::isinf(threshold)) return false;
    const long universal_threshold =
        query_len - static_cast<long>(q_) + 1 -
        static_cast<long>(threshold) * static_cast<long>(q_);
    return -key < universal_threshold;
  };
  TraceSpan refine_span(trace.get(), "refine");
  const TraceContext tc{trace.get(), refine_span.id()};
  KnnResult out;
  out.neighbors = RefineToTarget(target, [&](auto& sink) {
    return RefineInKeyOrder<long>(std::move(entries), sink, options, refine,
                                  stop, tc);
  });
  refine_span.End();
  ledger.Finish(&out, db_.size(), filter_seconds, order_done,
                std::move(trace));
  return out;
}

std::string QgramKnnSearcher::name() const {
  return std::string(QgramVariantName(variant_)) + "(q=" +
         std::to_string(q_) + ")";
}

uint64_t QgramKnnSearcher::FusionFingerprint(const Trajectory& query) const {
  // splitmix64-style finalizer; the top six bits pick the mask bit.
  const auto mix_bit = [](uint64_t v) -> uint64_t {
    v *= 0x9e3779b97f4a7c15ull;
    v ^= v >> 29;
    v *= 0xbf58476d1ce4e5b9ull;
    return 1ull << (v >> 58);
  };
  const double cell = epsilon_ > 0.0 ? epsilon_ : 1.0;
  const auto quantize = [cell](double v) -> uint64_t {
    return static_cast<uint64_t>(
        static_cast<int64_t>(std::floor(v / cell)));
  };
  uint64_t sig = 0;
  if (variant_ == QgramVariant::kRtree2D ||
      variant_ == QgramVariant::kMerge2D) {
    for (const Point2& m : MeanValueQgrams(query, q_)) {
      sig |= mix_bit(quantize(m.x) * 0x100000001b3ull + quantize(m.y));
    }
  } else {
    for (const double m : MeanValueQgrams1D(query, q_, /*use_x=*/true)) {
      sig |= mix_bit(quantize(m));
    }
  }
  return sig;
}

}  // namespace edr
