#include "pruning/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "core/cpu.h"
#include "query/intra_query.h"
#include "query/plan_cache.h"
#include "query/thread_pool.h"

#if defined(__SSE2__) && !defined(EDR_DISABLE_SIMD)
#include <emmintrin.h>
#define EDR_HISTOGRAM_SIMD 1
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(EDR_DISABLE_SIMD)
#include <immintrin.h>
#define EDR_HISTOGRAM_AVX2 1
#define EDR_HISTOGRAM_AVX512 1
#endif

#if defined(__aarch64__) && !defined(EDR_DISABLE_SIMD)
#include <arm_neon.h>
#define EDR_HISTOGRAM_NEON 1
#endif

namespace edr {

namespace {

/// A small Dinic max-flow solver used to compute the maximal cancellation
/// between positive and negative histogram residuals. Graph sizes here are
/// tiny (hundreds of nodes), so simplicity beats asymptotic tuning.
class MaxFlow {
 public:
  explicit MaxFlow(int num_nodes) : graph_(num_nodes) {}

  void AddEdge(int from, int to, int capacity) {
    graph_[from].push_back(
        {to, capacity, static_cast<int>(graph_[to].size())});
    graph_[to].push_back(
        {from, 0, static_cast<int>(graph_[from].size()) - 1});
  }

  int Compute(int source, int sink) {
    int flow = 0;
    while (Bfs(source, sink)) {
      iter_.assign(graph_.size(), 0);
      int pushed = 0;
      while ((pushed = Dfs(source, sink,
                           std::numeric_limits<int>::max())) > 0) {
        flow += pushed;
      }
    }
    return flow;
  }

 private:
  struct Edge {
    int to;
    int capacity;
    int reverse_index;
  };

  bool Bfs(int source, int sink) {
    level_.assign(graph_.size(), -1);
    std::queue<int> queue;
    level_[source] = 0;
    queue.push(source);
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop();
      for (const Edge& e : graph_[v]) {
        if (e.capacity > 0 && level_[e.to] < 0) {
          level_[e.to] = level_[v] + 1;
          queue.push(e.to);
        }
      }
    }
    return level_[sink] >= 0;
  }

  int Dfs(int v, int sink, int limit) {
    if (v == sink) return limit;
    for (size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
      Edge& e = graph_[v][i];
      if (e.capacity <= 0 || level_[e.to] != level_[v] + 1) continue;
      const int pushed = Dfs(e.to, sink, std::min(limit, e.capacity));
      if (pushed > 0) {
        e.capacity -= pushed;
        graph_[e.to][e.reverse_index].capacity += pushed;
        return pushed;
      }
    }
    return 0;
  }

  std::vector<std::vector<Edge>> graph_;
  std::vector<int> level_;
  std::vector<size_t> iter_;
};

struct OccupiedBin {
  int bin;
  int count;
};

/// Computes max(m, n) - T*, where T* is the maximum transport of mass from
/// HR bins to HS bins along approximately-matching (same or adjacent) bin
/// pairs; `neighbors_of(bin, emit)` enumerates the bins matching `bin`,
/// including `bin` itself.
///
/// Soundness (the Theorem 6 guarantee): in an optimal EDR edit script,
/// every zero-cost (matched) aligned pair occupies approximately-matching
/// bins, so the matched pairs form a feasible transport of size M. All
/// other elements of the longer trajectory are each touched by a distinct
/// edit operation, hence EDR >= max(m, n) - M >= max(m, n) - T*.
///
/// Note this is deliberately *stronger-than-greedy but weaker-than-naive*:
/// the naive residual cancellation (the paper's Figure 5, which only pairs
/// leftover counts of adjacent bins) over-estimates the distance when
/// matched pairs chain across bins (r1 in b0 matching s1 in b1, r2 in b1
/// matching s2 in b2 leaves residuals two bins apart) and would cause
/// false dismissals; the transport formulation handles chains exactly.
int TransportDistance(
    const std::vector<OccupiedBin>& from, const std::vector<OccupiedBin>& to,
    const std::function<void(int, const std::function<void(int)>&)>&
        neighbors_of) {
  int m = 0;
  for (const OccupiedBin& b : from) m += b.count;
  int n = 0;
  for (const OccupiedBin& b : to) n += b.count;
  const int longer = std::max(m, n);
  if (from.empty() || to.empty()) return longer;

  std::unordered_map<int, int> to_index;
  to_index.reserve(to.size() * 2);
  for (size_t j = 0; j < to.size(); ++j) {
    to_index.emplace(to[j].bin, static_cast<int>(j));
  }

  const int p = static_cast<int>(from.size());
  const int q = static_cast<int>(to.size());
  const int source = p + q;
  const int sink = p + q + 1;
  MaxFlow flow(p + q + 2);
  for (int i = 0; i < p; ++i) flow.AddEdge(source, i, from[i].count);
  for (int j = 0; j < q; ++j) flow.AddEdge(p + j, sink, to[j].count);
  for (int i = 0; i < p; ++i) {
    neighbors_of(from[i].bin, [&](int neighbor_bin) {
      const auto it = to_index.find(neighbor_bin);
      if (it != to_index.end()) {
        flow.AddEdge(i, p + it->second,
                     std::numeric_limits<int>::max() / 2);
      }
    });
  }
  const int transported = flow.Compute(source, sink);
  return longer - transported;
}

/// Linear-time upper bound on the maximum transport: each source bin can
/// ship at most min(its mass, total destination mass in its
/// neighborhood); symmetrically for destinations. Ignores capacity
/// sharing between overlapping neighborhoods, hence an upper bound.
int TransportUpperBound(
    const std::vector<int>& hr, const std::vector<int>& hs,
    const std::function<void(int, const std::function<void(int)>&)>&
        neighbors_of) {
  int from_side = 0;
  int to_side = 0;
  for (size_t b = 0; b < hr.size(); ++b) {
    if (hr[b] > 0) {
      int reachable = 0;
      neighbors_of(static_cast<int>(b), [&](int nb) {
        if (nb >= 0 && nb < static_cast<int>(hs.size())) reachable += hs[nb];
      });
      from_side += std::min(hr[b], reachable);
    }
    if (hs[b] > 0) {
      int reachable = 0;
      neighbors_of(static_cast<int>(b), [&](int nb) {
        if (nb >= 0 && nb < static_cast<int>(hr.size())) reachable += hr[nb];
      });
      to_side += std::min(hs[b], reachable);
    }
  }
  return std::min(from_side, to_side);
}

std::vector<OccupiedBin> Occupied(const std::vector<int>& h) {
  std::vector<OccupiedBin> bins;
  for (size_t i = 0; i < h.size(); ++i) {
    if (h[i] > 0) bins.push_back({static_cast<int>(i), h[i]});
  }
  return bins;
}

std::vector<std::pair<int, int>> SparseOf(const std::vector<int>& h) {
  std::vector<std::pair<int, int>> bins;
  for (size_t i = 0; i < h.size(); ++i) {
    if (h[i] > 0) bins.emplace_back(static_cast<int>(i), h[i]);
  }
  return bins;
}

/// Dense neighborhood sums: nbr[b] = total mass of `h` over b's
/// same-or-adjacent bins, computed separably (a horizontal 3-window pass,
/// then a vertical one; ny == 1 degenerates to the path neighborhood).
std::vector<int32_t> NeighborhoodSums(const std::vector<int>& h, int nx,
                                      int ny) {
  std::vector<int32_t> hsum(h.size());
  for (int y = 0; y < ny; ++y) {
    const int row = y * nx;
    for (int x = 0; x < nx; ++x) {
      int32_t s = h[static_cast<size_t>(row + x)];
      if (x > 0) s += h[static_cast<size_t>(row + x - 1)];
      if (x < nx - 1) s += h[static_cast<size_t>(row + x + 1)];
      hsum[static_cast<size_t>(row + x)] = s;
    }
  }
  if (ny == 1) return hsum;
  std::vector<int32_t> nbr(h.size());
  for (int y = 0; y < ny; ++y) {
    const int row = y * nx;
    for (int x = 0; x < nx; ++x) {
      int32_t s = hsum[static_cast<size_t>(row + x)];
      if (y > 0) s += hsum[static_cast<size_t>(row - nx + x)];
      if (y < ny - 1) s += hsum[static_cast<size_t>(row + nx + x)];
      nbr[static_cast<size_t>(row + x)] = s;
    }
  }
  return nbr;
}

// ---------------------------------------------------------------------------
// Sweep kernels. The column ("side A") half of the fast bound sums up to
// nine bin columns element-wise across a block of trajectory ids, then
// clamps by the query bin's mass — pure int32 lane arithmetic, so every
// lane width (scalar/SSE2/AVX2/AVX-512/NEON) produces identical integers
// in any order.
// ---------------------------------------------------------------------------

/// Ids per cache block: 3 int32 stack arrays of this size (~12 KB) plus
/// the active column segments stay L1/L2-resident while every query bin
/// streams over the block. Must fit uint16 local posting ids.
constexpr size_t kSweepBlock = 1024;
static_assert(kSweepBlock <= 65536, "blocked-sparse local ids are uint16");

inline void AddColumnScalar(const int32_t* col, int32_t* acc, size_t len) {
  for (size_t i = 0; i < len; ++i) acc[i] += col[i];
}

inline void MinCapAccumScalar(int32_t cap, const int32_t* acc, int32_t* a,
                              size_t len) {
  for (size_t i = 0; i < len; ++i) a[i] += std::min(cap, acc[i]);
}

#if defined(EDR_HISTOGRAM_SIMD)

inline __m128i MinI32(__m128i a, __m128i b) {
  // SSE2 has no epi32 min; compose it from a compare mask (SSE4.1's
  // pminsd computes exactly this).
  const __m128i lt = _mm_cmplt_epi32(a, b);
  return _mm_or_si128(_mm_and_si128(lt, a), _mm_andnot_si128(lt, b));
}

inline void AddColumnSimd(const int32_t* col, int32_t* acc, size_t len) {
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i));
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i),
                     _mm_add_epi32(a, c));
  }
  for (; i < len; ++i) acc[i] += col[i];
}

inline void MinCapAccumSimd(int32_t cap, const int32_t* acc, int32_t* a,
                            size_t len) {
  const __m128i vcap = _mm_set1_epi32(cap);
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(a + i),
                     _mm_add_epi32(s, MinI32(vcap, r)));
  }
  for (; i < len; ++i) a[i] += std::min(cap, acc[i]);
}

#endif  // defined(EDR_HISTOGRAM_SIMD)

#if defined(EDR_HISTOGRAM_AVX2)

// AVX2/AVX-512 bodies compiled via the target attribute (no extra compile
// flags), selected at runtime through ActiveKernelLevel() — the lane math
// is identical int32 adds/mins, only wider than the SSE2 kernels.

__attribute__((target("avx2"))) void AddColumnAvx2(const int32_t* col,
                                                   int32_t* acc, size_t len) {
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_add_epi32(a, c));
  }
  for (; i < len; ++i) acc[i] += col[i];
}

__attribute__((target("avx2"))) void MinCapAccumAvx2(int32_t cap,
                                                     const int32_t* acc,
                                                     int32_t* a, size_t len) {
  const __m256i vcap = _mm256_set1_epi32(cap);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_add_epi32(s, _mm256_min_epi32(vcap, r)));
  }
  for (; i < len; ++i) a[i] += std::min(cap, acc[i]);
}

#endif  // defined(EDR_HISTOGRAM_AVX2)

#if defined(EDR_HISTOGRAM_AVX512)

__attribute__((target("avx512f"))) void AddColumnAvx512(const int32_t* col,
                                                        int32_t* acc,
                                                        size_t len) {
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m512i c = _mm512_loadu_si512(col + i);
    const __m512i a = _mm512_loadu_si512(acc + i);
    _mm512_storeu_si512(acc + i, _mm512_add_epi32(a, c));
  }
  for (; i < len; ++i) acc[i] += col[i];
}

__attribute__((target("avx512f"))) void MinCapAccumAvx512(int32_t cap,
                                                          const int32_t* acc,
                                                          int32_t* a,
                                                          size_t len) {
  const __m512i vcap = _mm512_set1_epi32(cap);
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m512i r = _mm512_loadu_si512(acc + i);
    const __m512i s = _mm512_loadu_si512(a + i);
    _mm512_storeu_si512(a + i,
                        _mm512_add_epi32(s, _mm512_min_epi32(vcap, r)));
  }
  for (; i < len; ++i) a[i] += std::min(cap, acc[i]);
}

#endif  // defined(EDR_HISTOGRAM_AVX512)

#if defined(EDR_HISTOGRAM_NEON)

inline void AddColumnNeon(const int32_t* col, int32_t* acc, size_t len) {
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    vst1q_s32(acc + i, vaddq_s32(vld1q_s32(acc + i), vld1q_s32(col + i)));
  }
  for (; i < len; ++i) acc[i] += col[i];
}

inline void MinCapAccumNeon(int32_t cap, const int32_t* acc, int32_t* a,
                            size_t len) {
  const int32x4_t vcap = vdupq_n_s32(cap);
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    vst1q_s32(a + i, vaddq_s32(vld1q_s32(a + i),
                               vminq_s32(vcap, vld1q_s32(acc + i))));
  }
  for (; i < len; ++i) a[i] += std::min(cap, acc[i]);
}

#endif  // defined(EDR_HISTOGRAM_NEON)

// ---------------------------------------------------------------------------
// Bitmap and blocked-sparse block kernels. A bitmap column contributes +1
// per set bit; a sparse column scatters (local id, count) postings. Both
// add the same integers to distinct accumulator slots whatever the lane
// shape, so every body below is bit-identical to the scalar walk.
// ---------------------------------------------------------------------------

/// Scalar reference: count-trailing-zeros walk over the set bits.
inline void BitmapAccumScalar(const uint64_t* words, size_t word_count,
                              int32_t* acc) {
  for (size_t w = 0; w < word_count; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      acc[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))] += 1;
      bits &= bits - 1;
    }
  }
}

inline void SparseScatterScalar(const uint16_t* local_ids,
                                const int32_t* counts, uint32_t begin,
                                uint32_t end, int32_t* acc) {
  for (uint32_t p = begin; p < end; ++p) {
    acc[local_ids[p]] += counts[p];
  }
}

#if defined(EDR_HISTOGRAM_AVX2)

/// Expands each byte of a word into eight 0/-1 lanes (bit b set <=> lane b
/// matches its power-of-two probe) and subtracts the mask from the
/// accumulator — one masked add per byte instead of one scalar add per set
/// bit. Lanes past a short tail block read and write back unchanged
/// accumulator slots (their bits are never set), staying inside the
/// kSweepBlock stack buffer because word_count * 64 <= kSweepBlock.
__attribute__((target("avx2"))) void BitmapAccumAvx2(const uint64_t* words,
                                                     size_t word_count,
                                                     int32_t* acc) {
  const __m256i bitpos = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (size_t w = 0; w < word_count; ++w) {
    const uint64_t bits = words[w];
    if (bits == 0) continue;
    int32_t* base = acc + w * 64;
    for (size_t c = 0; c < 8; ++c) {
      const int32_t byte = static_cast<int32_t>((bits >> (c * 8)) & 0xFF);
      if (byte == 0) continue;
      const __m256i vb = _mm256_set1_epi32(byte);
      const __m256i m =
          _mm256_cmpeq_epi32(_mm256_and_si256(vb, bitpos), bitpos);
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + c * 8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(base + c * 8),
                          _mm256_sub_epi32(a, m));
    }
  }
}

#endif  // defined(EDR_HISTOGRAM_AVX2)

#if defined(EDR_HISTOGRAM_AVX512)

/// The word's 16-bit slices are the mask registers directly:
/// four masked 16-lane +1 adds per word.
__attribute__((target("avx512f"))) void BitmapAccumAvx512(
    const uint64_t* words, size_t word_count, int32_t* acc) {
  const __m512i ones = _mm512_set1_epi32(1);
  for (size_t w = 0; w < word_count; ++w) {
    const uint64_t bits = words[w];
    if (bits == 0) continue;
    int32_t* base = acc + w * 64;
    for (size_t c = 0; c < 4; ++c) {
      const __mmask16 m = static_cast<__mmask16>((bits >> (c * 16)) & 0xFFFF);
      if (m == 0) continue;
      __m512i a = _mm512_loadu_si512(base + c * 16);
      _mm512_storeu_si512(base + c * 16, _mm512_mask_add_epi32(a, m, a, ones));
    }
  }
}

/// Gather/add/scatter over 16 postings at a time. A column stores at most
/// one posting per trajectory id, so the 16 local ids are distinct and the
/// scatter is conflict-free — no vpconflictd pass needed (the ROADMAP
/// histogramming hazard does not arise here).
__attribute__((target("avx512f"))) void SparseScatterAvx512(
    const uint16_t* local_ids, const int32_t* counts, uint32_t begin,
    uint32_t end, int32_t* acc) {
  uint32_t p = begin;
  for (; p + 16 <= end; p += 16) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(local_ids + p));
    const __m512i idx = _mm512_cvtepu16_epi32(raw);
    const __m512i c = _mm512_loadu_si512(counts + p);
    // Masked form with an explicit zero source: the plain gather expands
    // to _mm512_undefined_epi32, which -Wmaybe-uninitialized flags.
    const __m512i g = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), static_cast<__mmask16>(0xFFFF), idx, acc, 4);
    _mm512_i32scatter_epi32(acc, idx, _mm512_add_epi32(g, c), 4);
  }
  for (; p < end; ++p) {
    acc[local_ids[p]] += counts[p];
  }
}

#endif  // defined(EDR_HISTOGRAM_AVX512)

// ---------------------------------------------------------------------------
// Fused side-B kernels: one walk of an id's posting slice serves a whole
// fusion group. The group's neighborhood sums are interleaved query-major
// (`nbr[bin * kMaxFusionGroup + f]`, zero-padded past the group), so each
// posting is one broadcast + min + add over kMaxFusionGroup int32 lanes.
// Padding lanes stay zero (min(count, 0) == 0 for the strictly positive
// counts), and per-lane sums are plain int32 additions, so every body is
// bit-identical to the one-query-at-a-time walk.
// ---------------------------------------------------------------------------

inline void FusedSideBScalar(const int32_t* bins, const int32_t* counts,
                             uint32_t begin, uint32_t end, const int32_t* nbr,
                             int32_t* sb) {
  for (uint32_t e = begin; e < end; ++e) {
    const int32_t* row =
        nbr + static_cast<size_t>(bins[e]) * kMaxFusionGroup;
    const int32_t c = counts[e];
    for (size_t f = 0; f < kMaxFusionGroup; ++f) {
      sb[f] += std::min(c, row[f]);
    }
  }
}

#if defined(EDR_HISTOGRAM_SIMD)

inline void FusedSideBSse2(const int32_t* bins, const int32_t* counts,
                           uint32_t begin, uint32_t end, const int32_t* nbr,
                           int32_t* sb) {
  __m128i s0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sb));
  __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sb + 4));
  for (uint32_t e = begin; e < end; ++e) {
    const int32_t* row =
        nbr + static_cast<size_t>(bins[e]) * kMaxFusionGroup;
    const __m128i vc = _mm_set1_epi32(counts[e]);
    s0 = _mm_add_epi32(
        s0, MinI32(vc, _mm_loadu_si128(
                           reinterpret_cast<const __m128i*>(row))));
    s1 = _mm_add_epi32(
        s1, MinI32(vc, _mm_loadu_si128(
                           reinterpret_cast<const __m128i*>(row + 4))));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(sb), s0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(sb + 4), s1);
}

#endif  // defined(EDR_HISTOGRAM_SIMD)

#if defined(EDR_HISTOGRAM_AVX2)

__attribute__((target("avx2"))) void FusedSideBAvx2(
    const int32_t* bins, const int32_t* counts, uint32_t begin, uint32_t end,
    const int32_t* nbr, int32_t* sb) {
  __m256i vsb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sb));
  for (uint32_t e = begin; e < end; ++e) {
    const __m256i row = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        nbr + static_cast<size_t>(bins[e]) * kMaxFusionGroup));
    const __m256i vc = _mm256_set1_epi32(counts[e]);
    vsb = _mm256_add_epi32(vsb, _mm256_min_epi32(vc, row));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(sb), vsb);
}

#endif  // defined(EDR_HISTOGRAM_AVX2)

#if defined(EDR_HISTOGRAM_AVX512)

/// Two postings per iteration: lanes 0-7 accumulate the even postings,
/// lanes 8-15 the odd ones, folded together at the end. Int32 addition
/// commutes exactly, so the regrouped per-query sums match the sequential
/// walk bit for bit.
__attribute__((target("avx512f"))) void FusedSideBAvx512(
    const int32_t* bins, const int32_t* counts, uint32_t begin, uint32_t end,
    const int32_t* nbr, int32_t* sb) {
  __m512i vsb = _mm512_setzero_si512();
  uint32_t e = begin;
  for (; e + 2 <= end; e += 2) {
    const __m256i ra = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        nbr + static_cast<size_t>(bins[e]) * kMaxFusionGroup));
    const __m256i rb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        nbr + static_cast<size_t>(bins[e + 1]) * kMaxFusionGroup));
    const __m512i row =
        _mm512_inserti64x4(_mm512_castsi256_si512(ra), rb, 1);
    const __m512i vc = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm256_set1_epi32(counts[e])),
        _mm256_set1_epi32(counts[e + 1]), 1);
    vsb = _mm512_add_epi32(vsb, _mm512_min_epi32(vc, row));
  }
  __m256i acc8 = _mm256_add_epi32(
      _mm512_castsi512_si256(vsb), _mm512_extracti64x4_epi64(vsb, 1));
  acc8 = _mm256_add_epi32(
      acc8, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sb)));
  if (e < end) {
    const __m256i row = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        nbr + static_cast<size_t>(bins[e]) * kMaxFusionGroup));
    const __m256i vc = _mm256_set1_epi32(counts[e]);
    acc8 = _mm256_add_epi32(acc8, _mm256_min_epi32(vc, row));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(sb), acc8);
}

#endif  // defined(EDR_HISTOGRAM_AVX512)

#if defined(EDR_HISTOGRAM_NEON)

inline void FusedSideBNeon(const int32_t* bins, const int32_t* counts,
                           uint32_t begin, uint32_t end, const int32_t* nbr,
                           int32_t* sb) {
  int32x4_t s0 = vld1q_s32(sb);
  int32x4_t s1 = vld1q_s32(sb + 4);
  for (uint32_t e = begin; e < end; ++e) {
    const int32_t* row =
        nbr + static_cast<size_t>(bins[e]) * kMaxFusionGroup;
    const int32x4_t vc = vdupq_n_s32(counts[e]);
    s0 = vaddq_s32(s0, vminq_s32(vc, vld1q_s32(row)));
    s1 = vaddq_s32(s1, vminq_s32(vc, vld1q_s32(row + 4)));
  }
  vst1q_s32(sb, s0);
  vst1q_s32(sb + 4, s1);
}

#endif  // defined(EDR_HISTOGRAM_NEON)

using AddColumnFn = void (*)(const int32_t*, int32_t*, size_t);
using MinCapAccumFn = void (*)(int32_t, const int32_t*, int32_t*, size_t);
using BitmapAccumFn = void (*)(const uint64_t*, size_t, int32_t*);
using SparseScatterFn = void (*)(const uint16_t*, const int32_t*, uint32_t,
                                 uint32_t, int32_t*);
using FusedSideBFn = void (*)(const int32_t*, const int32_t*, uint32_t,
                              uint32_t, const int32_t*, int32_t*);

/// Kernel pair for a dispatch level. Levels whose bodies are not compiled
/// into this build fall back to scalar (ActiveKernelLevel never returns
/// them, but the mapping stays total). All levels compute identical int32
/// results.
AddColumnFn AddColumnFor(KernelLevel level) {
  switch (level) {
#if defined(EDR_HISTOGRAM_AVX512)
    case KernelLevel::kAvx512: return AddColumnAvx512;
#endif
#if defined(EDR_HISTOGRAM_AVX2)
    case KernelLevel::kAvx2: return AddColumnAvx2;
#endif
#if defined(EDR_HISTOGRAM_SIMD)
    case KernelLevel::kSse2: return AddColumnSimd;
#endif
#if defined(EDR_HISTOGRAM_NEON)
    case KernelLevel::kNeon: return AddColumnNeon;
#endif
    default: return AddColumnScalar;
  }
}

MinCapAccumFn MinCapAccumFor(KernelLevel level) {
  switch (level) {
#if defined(EDR_HISTOGRAM_AVX512)
    case KernelLevel::kAvx512: return MinCapAccumAvx512;
#endif
#if defined(EDR_HISTOGRAM_AVX2)
    case KernelLevel::kAvx2: return MinCapAccumAvx2;
#endif
#if defined(EDR_HISTOGRAM_SIMD)
    case KernelLevel::kSse2: return MinCapAccumSimd;
#endif
#if defined(EDR_HISTOGRAM_NEON)
    case KernelLevel::kNeon: return MinCapAccumNeon;
#endif
    default: return MinCapAccumScalar;
  }
}

/// The five sweep kernels of one dispatch level, resolved together once
/// per sweep call. Families without a body at some level (e.g. the SSE2
/// bitmap walk, or the AVX2 scatter, where gathers without scatters lose
/// to the scalar loop) fall back to scalar — every combination computes
/// identical integers.
struct SweepKernels {
  AddColumnFn add_column = AddColumnScalar;
  MinCapAccumFn min_cap_accum = MinCapAccumScalar;
  BitmapAccumFn bitmap_accum = BitmapAccumScalar;
  SparseScatterFn sparse_scatter = SparseScatterScalar;
  FusedSideBFn fused_side_b = FusedSideBScalar;
};

SweepKernels SweepKernelsFor(KernelLevel level) {
  SweepKernels k;
  k.add_column = AddColumnFor(level);
  k.min_cap_accum = MinCapAccumFor(level);
  switch (level) {
#if defined(EDR_HISTOGRAM_AVX512)
    case KernelLevel::kAvx512:
      k.bitmap_accum = BitmapAccumAvx512;
      k.sparse_scatter = SparseScatterAvx512;
      k.fused_side_b = FusedSideBAvx512;
      break;
#endif
#if defined(EDR_HISTOGRAM_AVX2)
    case KernelLevel::kAvx2:
      k.bitmap_accum = BitmapAccumAvx2;
      k.fused_side_b = FusedSideBAvx2;
      break;
#endif
#if defined(EDR_HISTOGRAM_SIMD)
    case KernelLevel::kSse2:
      k.fused_side_b = FusedSideBSse2;
      break;
#endif
#if defined(EDR_HISTOGRAM_NEON)
    case KernelLevel::kNeon:
      k.fused_side_b = FusedSideBNeon;
      break;
#endif
    default:
      break;
  }
  return k;
}

}  // namespace

HistogramGrid HistogramGrid::For(const DatasetStats& stats, double bin_size) {
  HistogramGrid grid;
  // Guard degenerate thresholds: a zero or tiny bin size would blow the
  // grid up (or divide by zero). Clamping the bin size *up* is always
  // sound — matched pairs stay within adjacent bins for any bin size
  // >= epsilon — it only loosens the bound. Cap the grid at ~512 bins
  // per dimension.
  const double range = std::max(stats.max_xy.x - stats.min_xy.x,
                                stats.max_xy.y - stats.min_xy.y);
  bin_size = std::max({bin_size, range / 512.0, 1e-12});
  grid.bin_size = bin_size;
  // One bin of slack on each side so any element within epsilon of the
  // data range still falls in a real (non-clamped) bin.
  grid.min_x = stats.min_xy.x - bin_size;
  grid.min_y = stats.min_xy.y - bin_size;
  grid.nx = static_cast<int>(
                std::ceil((stats.max_xy.x - grid.min_x) / bin_size)) +
            2;
  grid.ny = static_cast<int>(
                std::ceil((stats.max_xy.y - grid.min_y) / bin_size)) +
            2;
  grid.nx = std::max(grid.nx, 1);
  grid.ny = std::max(grid.ny, 1);
  return grid;
}

namespace {

/// floor(offset) clamped to [0, bins - 1]. The clamp happens in the double
/// domain: a finite coordinate far outside the grid (say 1e300) has a bin
/// offset no int can hold, and casting it before clamping is undefined.
int ClampedBin(double offset, int bins) {
  return static_cast<int>(std::clamp(std::floor(offset), 0.0,
                                     static_cast<double>(bins - 1)));
}

}  // namespace

int HistogramGrid::BinX(double x) const {
  return ClampedBin((x - min_x) / bin_size, nx);
}

int HistogramGrid::BinY(double y) const {
  return ClampedBin((y - min_y) / bin_size, ny);
}

std::vector<int> BuildHistogram2D(const Trajectory& t,
                                  const HistogramGrid& grid) {
  std::vector<int> h(static_cast<size_t>(grid.NumBins2D()), 0);
  for (const Point2& p : t) {
    h[static_cast<size_t>(grid.BinY(p.y) * grid.nx + grid.BinX(p.x))]++;
  }
  return h;
}

std::vector<int> BuildHistogram1D(const Trajectory& t,
                                  const HistogramGrid& grid, bool use_x) {
  std::vector<int> h(static_cast<size_t>(use_x ? grid.nx : grid.ny), 0);
  for (const Point2& p : t) {
    h[static_cast<size_t>(use_x ? grid.BinX(p.x) : grid.BinY(p.y))]++;
  }
  return h;
}

int HistogramDistance2D(const std::vector<int>& hr, const std::vector<int>& hs,
                        const HistogramGrid& grid) {
  const int nx = grid.nx;
  const int ny = grid.ny;
  return TransportDistance(
      Occupied(hr), Occupied(hs),
      [nx, ny](int bin, const std::function<void(int)>& emit) {
        const int bx = bin % nx;
        const int by = bin / nx;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int x = bx + dx;
            const int y = by + dy;
            if (x >= 0 && x < nx && y >= 0 && y < ny) emit(y * nx + x);
          }
        }
      });
}

int HistogramDistance1D(const std::vector<int>& hr,
                        const std::vector<int>& hs) {
  return TransportDistance(
      Occupied(hr), Occupied(hs),
      [](int bin, const std::function<void(int)>& emit) {
        emit(bin - 1);
        emit(bin);
        emit(bin + 1);
      });
}

namespace {

int SumOf(const std::vector<int>& h) {
  int total = 0;
  for (const int v : h) total += v;
  return total;
}

std::function<void(int, const std::function<void(int)>&)> GridNeighbors(
    const HistogramGrid& grid) {
  const int nx = grid.nx;
  const int ny = grid.ny;
  return [nx, ny](int bin, const std::function<void(int)>& emit) {
    const int bx = bin % nx;
    const int by = bin / nx;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int x = bx + dx;
        const int y = by + dy;
        if (x >= 0 && x < nx && y >= 0 && y < ny) emit(y * nx + x);
      }
    }
  };
}

}  // namespace

int HistogramDistance2DFast(const std::vector<int>& hr,
                            const std::vector<int>& hs,
                            const HistogramGrid& grid) {
  const int longer = std::max(SumOf(hr), SumOf(hs));
  return longer - TransportUpperBound(hr, hs, GridNeighbors(grid));
}

int HistogramDistance1DFast(const std::vector<int>& hr,
                            const std::vector<int>& hs) {
  const int longer = std::max(SumOf(hr), SumOf(hs));
  return longer -
         TransportUpperBound(hr, hs,
                             [](int bin, const std::function<void(int)>& emit) {
                               emit(bin - 1);
                               emit(bin);
                               emit(bin + 1);
                             });
}

const char* HistogramLayoutName(HistogramLayout layout) {
  switch (layout) {
    case HistogramLayout::kAdaptive: return "adaptive";
    case HistogramLayout::kDense: return "dense";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Adaptive per-column storage. A "column" is the value of one bin across
// the whole database; the sweep touches columns block-wise, so every
// layout only needs O(1) entry into the [i0, i0 + len) id range.
// ---------------------------------------------------------------------------

enum ColLayout : uint8_t {
  kColEmpty = 0,   ///< no trajectory occupies the bin; nothing stored
  kColDense = 1,   ///< bin-major int32 column (the PR-2 layout)
  kColBitmap = 2,  ///< every stored count is 1; one bit per id
  kColSparse = 3,  ///< (local id, count) postings grouped by sweep block
};

/// Bitmap words per column.
inline size_t WordsPerColumn(size_t n) { return (n + 63) / 64; }

/// Column-density thresholds of the adaptive heuristic (ALGORITHMS.md §14).
/// Bytes per column: dense 4n; bitmap n/8; blocked-sparse ~6*occ plus the
/// 4*(num_blocks+1) block index. Bitmap wins over postings for all-ones
/// columns above ~n/48 occupancy; dense only pays once a quarter of the
/// database occupies the bin (at which point the streaming SIMD add also
/// beats posting scatter).
constexpr double kBitmapMinDensity = 1.0 / 32.0;
constexpr double kDenseMinDensity = 0.25;

uint8_t ClassifyColumn(HistogramLayout layout, uint32_t occ, int32_t max_count,
                       size_t n) {
  if (layout == HistogramLayout::kDense) return kColDense;
  if (occ == 0) return kColEmpty;
  const double density = static_cast<double>(occ) / static_cast<double>(n);
  if (max_count == 1 && density >= kBitmapMinDensity) return kColBitmap;
  if (density >= kDenseMinDensity) return kColDense;
  return kColSparse;
}

/// Appends `t`'s occupied (bin, count) list in ascending bin order without
/// materializing a dense num_bins-sized scratch histogram — at fine grids
/// (δ = 1) the dense scratch alone would cost O(bins) per trajectory.
void FillOccupied(const Trajectory& t, const HistogramGrid& grid, int mode,
                  std::vector<int>* scratch_bins,
                  std::vector<OccupiedBin>* occ) {
  scratch_bins->clear();
  scratch_bins->reserve(t.size());
  for (const Point2& p : t) {
    int bin;
    switch (mode) {
      case 0: bin = grid.BinY(p.y) * grid.nx + grid.BinX(p.x); break;
      case 1: bin = grid.BinX(p.x); break;
      default: bin = grid.BinY(p.y); break;
    }
    scratch_bins->push_back(bin);
  }
  std::sort(scratch_bins->begin(), scratch_bins->end());
  occ->clear();
  for (size_t i = 0; i < scratch_bins->size();) {
    size_t j = i;
    while (j < scratch_bins->size() &&
           (*scratch_bins)[j] == (*scratch_bins)[i]) {
      ++j;
    }
    occ->push_back({(*scratch_bins)[i], static_cast<int>(j - i)});
    i = j;
  }
}

}  // namespace

HistogramTable::HistogramTable(const TrajectoryDataset& db, double epsilon,
                               Kind kind, int delta, HistogramLayout layout)
    : kind_(kind), delta_(std::max(1, delta)), layout_(layout) {
  grid_ = HistogramGrid::For(db.Stats(), epsilon * delta_);
  {
    // %.17g round-trips doubles exactly, so equal keys <=> equal grids.
    // The storage layout never changes a QueryHistogram, but it is part of
    // the semantic configuration — keying on it guarantees a layout change
    // can never serve a feature cached under another table config.
    char buf[176];
    std::snprintf(buf, sizeof(buf),
                  "hist.%s/grid=%d.%d/%.17g,%.17g,%.17g/layout=%s",
                  kind_ == Kind::k2D ? "2d" : "1d", grid_.nx, grid_.ny,
                  grid_.min_x, grid_.min_y, grid_.bin_size,
                  HistogramLayoutName(layout_));
    feature_key_ = buf;
  }
  totals_.reserve(db.size());
  for (const Trajectory& t : db) {
    totals_.push_back(static_cast<int32_t>(t.size()));
  }
  if (kind_ == Kind::k2D) {
    BuildTable(db, /*mode=*/0, &flat_2d_);
  } else {
    BuildTable(db, /*mode=*/1, &flat_x_);
    BuildTable(db, /*mode=*/2, &flat_y_);
  }
}

void HistogramTable::BuildTable(const TrajectoryDataset& db, int mode,
                                FlatHistograms* flat) const {
  const int nx = mode == 2 ? grid_.ny : grid_.nx;
  const int ny = mode == 0 ? grid_.ny : 1;
  const size_t n = db.size();
  const size_t num_bins = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  flat->nx = nx;
  flat->ny = ny;
  flat->n = n;
  flat->num_blocks = (n + kSweepBlock - 1) / kSweepBlock;

  // Phase 1: occupied lists, parallel over disjoint trajectories.
  std::vector<std::vector<OccupiedBin>> occupied(n);
  ThreadPool::Global().ParallelFor(n, [&](size_t id) {
    thread_local std::vector<int> scratch;
    FillOccupied(db[id], grid_, mode, &scratch, &occupied[id]);
  });

  // Phase 2: column statistics → layout classification.
  std::vector<uint32_t> occ_count(num_bins, 0);
  std::vector<int32_t> col_max(num_bins, 0);
  for (size_t id = 0; id < n; ++id) {
    for (const OccupiedBin& b : occupied[id]) {
      const size_t bin = static_cast<size_t>(b.bin);
      occ_count[bin]++;
      col_max[bin] = std::max(col_max[bin], b.count);
    }
  }
  flat->col_layout.assign(num_bins, kColEmpty);
  flat->col_slot.assign(num_bins, 0);
  uint32_t dense_cols = 0;
  uint32_t bitmap_cols = 0;
  uint32_t sparse_cols = 0;
  size_t sparse_postings = 0;
  for (size_t b = 0; b < num_bins; ++b) {
    const uint8_t lay = ClassifyColumn(layout_, occ_count[b], col_max[b], n);
    flat->col_layout[b] = lay;
    switch (lay) {
      case kColDense: flat->col_slot[b] = dense_cols++; break;
      case kColBitmap: flat->col_slot[b] = bitmap_cols++; break;
      case kColSparse:
        flat->col_slot[b] = sparse_cols++;
        sparse_postings += occ_count[b];
        break;
      default: break;
    }
  }
  const size_t wpc = WordsPerColumn(n);
  flat->dense.assign(static_cast<size_t>(dense_cols) * n, 0);
  flat->bits.assign(static_cast<size_t>(bitmap_cols) * wpc, 0);
  flat->sp_block_offsets.assign(
      static_cast<size_t>(sparse_cols) * (flat->num_blocks + 1), 0);
  flat->sp_local_ids.resize(sparse_postings);
  flat->sp_counts.resize(sparse_postings);

  // Posting ranges per sparse column, prefix-summed in bin (= slot) order.
  std::vector<uint32_t> col_begin(static_cast<size_t>(sparse_cols) + 1, 0);
  {
    uint32_t run = 0;
    for (size_t b = 0; b < num_bins; ++b) {
      if (flat->col_layout[b] == kColSparse) {
        col_begin[flat->col_slot[b]] = run;
        run += occ_count[b];
      }
    }
    col_begin[sparse_cols] = run;
  }

  // Phase 3: id-major stitching. Iterating ids in order makes every
  // column's postings arrive sorted by id and reproduces the exact
  // id-major slices a serial build would write.
  flat->sparse_offsets.assign(n + 1, 0);
  for (size_t id = 0; id < n; ++id) {
    flat->sparse_offsets[id + 1] =
        flat->sparse_offsets[id] + static_cast<uint32_t>(occupied[id].size());
  }
  const size_t total = flat->sparse_offsets[n];
  flat->sparse_bins.resize(total);
  flat->sparse_counts.resize(total);
  std::vector<uint32_t> cursor(col_begin.begin(), col_begin.end() - 1);
  std::vector<uint32_t> sp_global_ids(sparse_postings);
  for (size_t id = 0; id < n; ++id) {
    uint32_t e = flat->sparse_offsets[id];
    for (const OccupiedBin& b : occupied[id]) {
      flat->sparse_bins[e] = b.bin;
      flat->sparse_counts[e] = b.count;
      ++e;
      const size_t bin = static_cast<size_t>(b.bin);
      switch (flat->col_layout[bin]) {
        case kColDense:
          flat->dense[static_cast<size_t>(flat->col_slot[bin]) * n + id] =
              b.count;
          break;
        case kColBitmap:
          flat->bits[static_cast<size_t>(flat->col_slot[bin]) * wpc +
                     id / 64] |= uint64_t{1} << (id & 63);
          break;
        case kColSparse: {
          const uint32_t p = cursor[flat->col_slot[bin]]++;
          sp_global_ids[p] = static_cast<uint32_t>(id);
          flat->sp_counts[p] = b.count;
          break;
        }
        default: break;
      }
    }
  }

  // Phase 4: block index + local ids, sharded over disjoint sparse
  // columns (deterministic regardless of schedule).
  ThreadPool::Global().ParallelFor(sparse_cols, [&](size_t slot) {
    const uint32_t begin = col_begin[slot];
    const uint32_t end = col_begin[slot + 1];
    uint32_t* bo = flat->sp_block_offsets.data() + slot * (flat->num_blocks + 1);
    uint32_t p = begin;
    for (size_t block = 0; block < flat->num_blocks; ++block) {
      bo[block] = p;
      const uint32_t limit =
          static_cast<uint32_t>((block + 1) * kSweepBlock);
      const uint32_t base = static_cast<uint32_t>(block * kSweepBlock);
      while (p < end && sp_global_ids[p] < limit) {
        flat->sp_local_ids[p] =
            static_cast<uint16_t>(sp_global_ids[p] - base);
        ++p;
      }
    }
    bo[flat->num_blocks] = end;
  });
}

HistogramStorageStats HistogramTable::storage_stats() const {
  HistogramStorageStats stats;
  const auto add = [&stats](const FlatHistograms& f) {
    if (f.col_layout.empty()) return;
    stats.columns += f.col_layout.size();
    for (const uint8_t lay : f.col_layout) {
      switch (lay) {
        case kColDense: stats.dense_columns++; break;
        case kColBitmap: stats.bitmap_columns++; break;
        case kColSparse: stats.sparse_columns++; break;
        default: stats.empty_columns++; break;
      }
    }
    stats.column_bytes +=
        f.dense.size() * sizeof(int32_t) + f.bits.size() * sizeof(uint64_t) +
        f.sp_block_offsets.size() * sizeof(uint32_t) +
        f.sp_local_ids.size() * sizeof(uint16_t) +
        f.sp_counts.size() * sizeof(int32_t) +
        f.col_layout.size() * (sizeof(uint8_t) + sizeof(uint32_t));
    stats.dense_equivalent_bytes +=
        f.col_layout.size() * f.n * sizeof(int32_t);
  };
  add(flat_2d_);
  add(flat_x_);
  add(flat_y_);
  return stats;
}

HistogramTable::QueryHistogram HistogramTable::MakeQueryHistogram(
    const Trajectory& query) const {
  QueryHistogram qh;
  qh.total = static_cast<int>(query.size());
  if (kind_ == Kind::k2D) {
    qh.h2d = BuildHistogram2D(query, grid_);
    qh.sparse_2d = SparseOf(qh.h2d);
    qh.nbr_2d = NeighborhoodSums(qh.h2d, grid_.nx, grid_.ny);
  } else {
    qh.hx = BuildHistogram1D(query, grid_, /*use_x=*/true);
    qh.hy = BuildHistogram1D(query, grid_, /*use_x=*/false);
    qh.sparse_x = SparseOf(qh.hx);
    qh.sparse_y = SparseOf(qh.hy);
    qh.nbr_x = NeighborhoodSums(qh.hx, grid_.nx, 1);
    qh.nbr_y = NeighborhoodSums(qh.hy, grid_.ny, 1);
  }
  return qh;
}

namespace {

/// Rebuilds the occupied-bin list of one trajectory from its flat sparse
/// slice (exact-bound path only; the fast paths read the slice in place).
std::vector<OccupiedBin> OccupiedFromSlice(const std::vector<int32_t>& bins,
                                           const std::vector<int32_t>& counts,
                                           uint32_t begin, uint32_t end) {
  std::vector<OccupiedBin> out;
  out.reserve(end - begin);
  for (uint32_t e = begin; e < end; ++e) {
    out.push_back({bins[e], counts[e]});
  }
  return out;
}

std::vector<OccupiedBin> OccupiedFromPairs(
    const std::vector<std::pair<int, int>>& sparse) {
  std::vector<OccupiedBin> out;
  out.reserve(sparse.size());
  for (const auto& [bin, count] : sparse) out.push_back({bin, count});
  return out;
}

}  // namespace

int HistogramTable::LowerBound(const QueryHistogram& query,
                               uint32_t id) const {
  if (kind_ == Kind::k2D) {
    return TransportDistance(
        OccupiedFromPairs(query.sparse_2d),
        OccupiedFromSlice(flat_2d_.sparse_bins, flat_2d_.sparse_counts,
                          flat_2d_.sparse_offsets[id],
                          flat_2d_.sparse_offsets[id + 1]),
        GridNeighbors(grid_));
  }
  // Each per-dimension HD lower-bounds EDR (Corollary 1); take the max.
  const auto path = [](int bin, const std::function<void(int)>& emit) {
    emit(bin - 1);
    emit(bin);
    emit(bin + 1);
  };
  const int dx = TransportDistance(
      OccupiedFromPairs(query.sparse_x),
      OccupiedFromSlice(flat_x_.sparse_bins, flat_x_.sparse_counts,
                        flat_x_.sparse_offsets[id],
                        flat_x_.sparse_offsets[id + 1]),
      path);
  const int dy = TransportDistance(
      OccupiedFromPairs(query.sparse_y),
      OccupiedFromSlice(flat_y_.sparse_bins, flat_y_.sparse_counts,
                        flat_y_.sparse_offsets[id],
                        flat_y_.sparse_offsets[id + 1]),
      path);
  return std::max(dx, dy);
}

namespace {

/// One trajectory's count in one bin column, off the adaptive store. The
/// per-row bound path only; the sweep enters columns block-wise.
int32_t ColumnCountAt(const HistogramTable::FlatHistograms& f, size_t bin,
                      uint32_t id) {
  switch (f.col_layout[bin]) {
    case kColDense:
      return f.dense[static_cast<size_t>(f.col_slot[bin]) * f.n + id];
    case kColBitmap:
      return static_cast<int32_t>(
          (f.bits[static_cast<size_t>(f.col_slot[bin]) * WordsPerColumn(f.n) +
                  id / 64] >>
           (id & 63)) &
          1);
    case kColSparse: {
      const size_t slot = f.col_slot[bin];
      const size_t block = id / kSweepBlock;
      const uint32_t* bo =
          f.sp_block_offsets.data() + slot * (f.num_blocks + 1);
      const uint16_t local =
          static_cast<uint16_t>(id - block * kSweepBlock);
      const uint16_t* lo = f.sp_local_ids.data() + bo[block];
      const uint16_t* hi = f.sp_local_ids.data() + bo[block + 1];
      const uint16_t* it = std::lower_bound(lo, hi, local);
      if (it != hi && *it == local) {
        return f.sp_counts[static_cast<size_t>(it - f.sp_local_ids.data())];
      }
      return 0;
    }
    default:
      return 0;
  }
}

/// One trajectory's linear transport upper bound against the query, off
/// the flat tables: min over the two sides of the relaxation. Shared by
/// the per-row FastLowerBound; the sweep computes identical integers
/// block-wise.
int TransportSideScalar(const std::vector<std::pair<int, int>>& q_sparse,
                        const std::vector<int32_t>& qnbr,
                        const HistogramTable::FlatHistograms& f,
                        uint32_t id) {
  const int nx = f.nx;
  const int ny = f.ny;
  // Side A: query bins against the trajectory's column neighborhood mass.
  int side_a = 0;
  for (const auto& [qbin, qcount] : q_sparse) {
    const int bx = qbin % nx;
    const int by = qbin / nx;
    int32_t reach = 0;
    const int y_lo = by > 0 ? by - 1 : 0;
    const int y_hi = by < ny - 1 ? by + 1 : ny - 1;
    const int x_lo = bx > 0 ? bx - 1 : 0;
    const int x_hi = bx < nx - 1 ? bx + 1 : nx - 1;
    for (int y = y_lo; y <= y_hi; ++y) {
      for (int x = x_lo; x <= x_hi; ++x) {
        reach += ColumnCountAt(f, static_cast<size_t>(y * nx + x), id);
      }
    }
    side_a += std::min(qcount, static_cast<int>(reach));
  }
  // Side B: the trajectory's occupied bins against the query's
  // precomputed neighborhood sums.
  int side_b = 0;
  for (uint32_t e = f.sparse_offsets[id]; e < f.sparse_offsets[id + 1]; ++e) {
    side_b += std::min(f.sparse_counts[e],
                       qnbr[static_cast<size_t>(f.sparse_bins[e])]);
  }
  return std::min(side_a, side_b);
}

}  // namespace

int HistogramTable::FastLowerBound(const QueryHistogram& query,
                                   uint32_t id) const {
  const int longer = std::max(query.total, static_cast<int>(totals_[id]));
  if (kind_ == Kind::k2D) {
    const int transport =
        TransportSideScalar(query.sparse_2d, query.nbr_2d, flat_2d_, id);
    return longer - transport;
  }
  const int tx = TransportSideScalar(query.sparse_x, query.nbr_x, flat_x_, id);
  const int ty = TransportSideScalar(query.sparse_y, query.nbr_y, flat_y_, id);
  // Each per-dimension bound is a valid EDR lower bound; take the max.
  return std::max(longer - tx, longer - ty);
}

namespace {

/// Adds column `bin` over the id block [i0, i0 + len) into `acc`,
/// dispatching on the column's storage layout. i0 is kSweepBlock-aligned,
/// so bitmap reads start on a word boundary and the blocked-sparse block
/// index applies directly. Every layout adds the same integers the dense
/// column would, in a different order — int32 addition commutes, so the
/// accumulator is bit-identical across layouts.
inline void AddColumnBlock(const HistogramTable::FlatHistograms& f,
                           size_t bin, size_t i0, size_t len, int32_t* acc,
                           const SweepKernels& kernels) {
  switch (f.col_layout[bin]) {
    case kColDense:
      kernels.add_column(
          f.dense.data() + static_cast<size_t>(f.col_slot[bin]) * f.n + i0,
          acc, len);
      break;
    case kColBitmap: {
      const uint64_t* words =
          f.bits.data() + static_cast<size_t>(f.col_slot[bin]) *
                              WordsPerColumn(f.n) +
          i0 / 64;
      kernels.bitmap_accum(words, (len + 63) / 64, acc);
      break;
    }
    case kColSparse: {
      const size_t slot = f.col_slot[bin];
      const size_t block = i0 / kSweepBlock;
      const uint32_t* bo =
          f.sp_block_offsets.data() + slot * (f.num_blocks + 1);
      kernels.sparse_scatter(f.sp_local_ids.data(), f.sp_counts.data(),
                             bo[block], bo[block + 1], acc);
      break;
    }
    default:
      break;
  }
}

/// min(side A, side B) of the linear transport bound for every id in the
/// block [i0, i0 + len), len <= kSweepBlock. Side A enters each query
/// bin's neighborhood columns through the per-layout block dispatch (dense
/// columns stream through the `add_column` lanes); side B walks the flat
/// id-major slices.
void TransportBlock(const HistogramTable::FlatHistograms& f,
                    const std::vector<std::pair<int, int>>& q_sparse,
                    const std::vector<int32_t>& qnbr,
                    const SweepKernels& kernels, size_t i0, size_t len,
                    int32_t* out) {
  const int nx = f.nx;
  const int ny = f.ny;
  alignas(64) int32_t acc[kSweepBlock];
  alignas(64) int32_t side_a[kSweepBlock];
  std::fill_n(side_a, len, 0);
  for (const auto& [qbin, qcount] : q_sparse) {
    const int bx = qbin % nx;
    const int by = qbin / nx;
    const int y_lo = by > 0 ? by - 1 : 0;
    const int y_hi = by < ny - 1 ? by + 1 : ny - 1;
    const int x_lo = bx > 0 ? bx - 1 : 0;
    const int x_hi = bx < nx - 1 ? bx + 1 : nx - 1;
    // Skip all-empty neighborhoods outright (adding zeros): at fine grids
    // most of a query's bins touch no occupied column in a given block.
    bool any = false;
    for (int y = y_lo; y <= y_hi && !any; ++y) {
      for (int x = x_lo; x <= x_hi; ++x) {
        if (f.col_layout[static_cast<size_t>(y * nx + x)] != kColEmpty) {
          any = true;
          break;
        }
      }
    }
    if (!any) continue;
    std::fill_n(acc, len, 0);
    for (int y = y_lo; y <= y_hi; ++y) {
      for (int x = x_lo; x <= x_hi; ++x) {
        AddColumnBlock(f, static_cast<size_t>(y * nx + x), i0, len, acc,
                       kernels);
      }
    }
    kernels.min_cap_accum(qcount, acc, side_a, len);
  }
  for (size_t j = 0; j < len; ++j) {
    const size_t id = i0 + j;
    int32_t side_b = 0;
    for (uint32_t e = f.sparse_offsets[id]; e < f.sparse_offsets[id + 1];
         ++e) {
      side_b += std::min(f.sparse_counts[e],
                         qnbr[static_cast<size_t>(f.sparse_bins[e])]);
    }
    out[j] = std::min(side_a[j], side_b);
  }
}

// ---------------------------------------------------------------------------
// Fused sweep plumbing. A fusion group's queries are merged into one
// ascending list of *distinct* bins, so each bin's neighborhood columns are
// accumulated once per block and clamped into every member that occupies
// the bin. Per query, the clamp sequence visits exactly its own bins in
// ascending order — the same subsequence, in the same order, as the
// single-query sweep — and both sides of the bound are int32 sums, so the
// fused pass is bit-identical to F independent sweeps.
// ---------------------------------------------------------------------------

/// One distinct bin of a fusion group. qcount[f] == 0 marks members that
/// do not occupy the bin. `any` caches the (block-independent)
/// empty-neighborhood test.
struct FusedBinEntry {
  int32_t bin = 0;
  bool any = false;
  int32_t qcount[kMaxFusionGroup] = {};
};

/// The cacheable part of one dimension's fused-sweep plan: a pure
/// function of the members' sparse histograms (in order) and the table
/// configuration, so the FusedPlanCache can share it across sweeps that
/// re-fuse the same queries. Immutable once built.
struct FusedPlanData {
  size_t group = 0;
  std::vector<FusedBinEntry> bins;
  /// Query-major interleaved neighborhood sums
  /// (`fused_nbr[bin * kMaxFusionGroup + f]`, zero-padded past the group),
  /// feeding the register-blocked side-B kernels. Left empty — falling
  /// back to per-query lookups — when the grid has more bins than the
  /// table has postings, where the O(bins * group) transpose would cost
  /// more than the walk it accelerates.
  std::vector<int32_t> fused_nbr;
};

/// The per-dimension plan of one fused sweep, shared read-only by every
/// block shard: the cached (or freshly built) data plus this call's
/// per-member neighborhood-sum pointers for the transpose-less fallback.
struct FusedPlan {
  std::shared_ptr<const FusedPlanData> data;
  const std::vector<int32_t>* nbr[kMaxFusionGroup] = {};
};

FusedPlanData BuildFusedPlanData(
    const HistogramTable::FlatHistograms& f,
    const std::vector<const std::vector<std::pair<int, int>>*>& sparse,
    const std::vector<const std::vector<int32_t>*>& nbr) {
  FusedPlanData plan;
  const size_t group = sparse.size();
  plan.group = group;
  struct Item {
    int32_t bin;
    uint32_t f;
    int32_t count;
  };
  std::vector<Item> items;
  for (uint32_t fq = 0; fq < group; ++fq) {
    for (const auto& [bin, count] : *sparse[fq]) {
      items.push_back({bin, fq, count});
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.bin != b.bin ? a.bin < b.bin : a.f < b.f;
  });
  const int nx = f.nx;
  const int ny = f.ny;
  for (size_t i = 0; i < items.size();) {
    FusedBinEntry e;
    e.bin = items[i].bin;
    while (i < items.size() && items[i].bin == e.bin) {
      e.qcount[items[i].f] = items[i].count;
      ++i;
    }
    const int bx = e.bin % nx;
    const int by = e.bin / nx;
    const int y_lo = by > 0 ? by - 1 : 0;
    const int y_hi = by < ny - 1 ? by + 1 : ny - 1;
    const int x_lo = bx > 0 ? bx - 1 : 0;
    const int x_hi = bx < nx - 1 ? bx + 1 : nx - 1;
    for (int y = y_lo; y <= y_hi && !e.any; ++y) {
      for (int x = x_lo; x <= x_hi; ++x) {
        if (f.col_layout[static_cast<size_t>(y * nx + x)] != kColEmpty) {
          e.any = true;
          break;
        }
      }
    }
    plan.bins.push_back(e);
  }
  const size_t num_bins = f.col_layout.size();
  if (num_bins <= f.sparse_bins.size()) {
    plan.fused_nbr.assign(num_bins * kMaxFusionGroup, 0);
    for (uint32_t fq = 0; fq < group; ++fq) {
      const std::vector<int32_t>& src = *nbr[fq];
      for (size_t b = 0; b < num_bins; ++b) {
        plan.fused_nbr[b * kMaxFusionGroup + fq] = src[b];
      }
    }
  }
  return plan;
}

/// TransportBlock for a fusion group: out[f][j] holds member f's
/// min(side A, side B) for id i0 + j.
void TransportBlockFused(const HistogramTable::FlatHistograms& f,
                         const FusedPlan& plan, const SweepKernels& kernels,
                         size_t i0, size_t len,
                         int32_t (*out)[kSweepBlock]) {
  const FusedPlanData& data = *plan.data;
  const size_t group = data.group;
  const int nx = f.nx;
  const int ny = f.ny;
  alignas(64) int32_t acc[kSweepBlock];
  for (size_t fq = 0; fq < group; ++fq) {
    std::fill_n(out[fq], len, 0);
  }
  for (const FusedBinEntry& e : data.bins) {
    if (!e.any) continue;
    const int bx = e.bin % nx;
    const int by = e.bin / nx;
    const int y_lo = by > 0 ? by - 1 : 0;
    const int y_hi = by < ny - 1 ? by + 1 : ny - 1;
    const int x_lo = bx > 0 ? bx - 1 : 0;
    const int x_hi = bx < nx - 1 ? bx + 1 : nx - 1;
    std::fill_n(acc, len, 0);
    for (int y = y_lo; y <= y_hi; ++y) {
      for (int x = x_lo; x <= x_hi; ++x) {
        AddColumnBlock(f, static_cast<size_t>(y * nx + x), i0, len, acc,
                       kernels);
      }
    }
    // The bin's neighborhood mass is accumulated once; every member that
    // occupies it pays only its own clamp — the fused sweep's side-A
    // saving over F independent sweeps.
    for (size_t fq = 0; fq < group; ++fq) {
      if (e.qcount[fq] > 0) {
        kernels.min_cap_accum(e.qcount[fq], acc, out[fq], len);
      }
    }
  }
  for (size_t j = 0; j < len; ++j) {
    const size_t id = i0 + j;
    alignas(32) int32_t sb[kMaxFusionGroup] = {};
    if (!data.fused_nbr.empty()) {
      kernels.fused_side_b(f.sparse_bins.data(), f.sparse_counts.data(),
                           f.sparse_offsets[id], f.sparse_offsets[id + 1],
                           data.fused_nbr.data(), sb);
    } else {
      for (uint32_t e = f.sparse_offsets[id]; e < f.sparse_offsets[id + 1];
           ++e) {
        const size_t bin = static_cast<size_t>(f.sparse_bins[e]);
        const int32_t c = f.sparse_counts[e];
        for (size_t fq = 0; fq < group; ++fq) {
          sb[fq] += std::min(c, (*plan.nbr[fq])[bin]);
        }
      }
    }
    for (size_t fq = 0; fq < group; ++fq) {
      out[fq][j] = std::min(out[fq][j], sb[fq]);
    }
  }
}

}  // namespace

void HistogramTable::SweepBlocks(const QueryHistogram& query,
                                 KernelLevel level, size_t block_begin,
                                 size_t block_end,
                                 std::vector<int>* out) const {
  const size_t n = totals_.size();
  // Lane kernels, resolved once per call so the active level
  // (EDR_FORCE_KERNEL / test pins) is honored dynamically.
  const SweepKernels kernels = SweepKernelsFor(level);
  for (size_t block = block_begin; block < block_end; ++block) {
    const size_t i0 = block * kSweepBlock;
    const size_t len = std::min(kSweepBlock, n - i0);
    if (kind_ == Kind::k2D) {
      alignas(64) int32_t t[kSweepBlock];
      TransportBlock(flat_2d_, query.sparse_2d, query.nbr_2d, kernels, i0,
                     len, t);
      for (size_t j = 0; j < len; ++j) {
        const int longer =
            std::max(query.total, static_cast<int>(totals_[i0 + j]));
        (*out)[i0 + j] = longer - t[j];
      }
    } else {
      alignas(64) int32_t tx[kSweepBlock];
      alignas(64) int32_t ty[kSweepBlock];
      TransportBlock(flat_x_, query.sparse_x, query.nbr_x, kernels, i0, len,
                     tx);
      TransportBlock(flat_y_, query.sparse_y, query.nbr_y, kernels, i0, len,
                     ty);
      for (size_t j = 0; j < len; ++j) {
        const int longer =
            std::max(query.total, static_cast<int>(totals_[i0 + j]));
        (*out)[i0 + j] = std::max(longer - tx[j], longer - ty[j]);
      }
    }
  }
}

void HistogramTable::SweepImpl(const QueryHistogram& query, KernelLevel level,
                               std::vector<int>* out) const {
  const size_t n = totals_.size();
  out->resize(n);
  SweepBlocks(query, level, 0, (n + kSweepBlock - 1) / kSweepBlock, out);
}

void HistogramTable::FastLowerBoundSweep(const QueryHistogram& query,
                                         std::vector<int>* out) const {
  SweepImpl(query, ActiveKernelLevel(), out);
}

void HistogramTable::FastLowerBoundSweepParallel(
    const QueryHistogram& query, std::vector<int>* out,
    const KnnOptions& options) const {
  const unsigned workers = ResolveIntraQueryWorkers(options);
  const size_t n = totals_.size();
  const size_t num_blocks = (n + kSweepBlock - 1) / kSweepBlock;
  if (workers <= 1 || num_blocks <= 1) {
    FastLowerBoundSweep(query, out);
    return;
  }
  // Resolve the level once so every shard of this sweep runs one kernel.
  const KernelLevel level = ActiveKernelLevel();
  out->resize(n);
  // Contiguous block ranges, one per participant; every block writes only
  // its own kSweepBlock-aligned output slice, so the sharded sweep is
  // bit-identical to the sequential one.
  const size_t ranges = std::min<size_t>(workers, num_blocks);
  IntraQueryPool(options).ParallelFor(
      ranges,
      [&](size_t r) {
        const size_t begin = r * num_blocks / ranges;
        const size_t end = (r + 1) * num_blocks / ranges;
        SweepBlocks(query, level, begin, end, out);
      },
      static_cast<unsigned>(ranges));
}

void HistogramTable::FastLowerBoundSweepScalar(const QueryHistogram& query,
                                               std::vector<int>* out) const {
  SweepImpl(query, KernelLevel::kScalar, out);
}

void HistogramTable::SweepFusedChunk(
    const std::vector<const QueryHistogram*>& queries,
    const std::vector<std::vector<int>*>& outs,
    const KnnOptions* options) const {
  const size_t group = queries.size();
  const size_t n = totals_.size();
  const size_t num_blocks = (n + kSweepBlock - 1) / kSweepBlock;
  // Resolve the level once so every shard of this sweep runs one kernel.
  const KernelLevel level = ActiveKernelLevel();
  for (std::vector<int>* out : outs) out->resize(n);

  FusedPlanCache* plan_cache =
      options != nullptr ? options->plan_cache : nullptr;

  // Local member views, canonically ordered when a plan cache is attached:
  // members are stably sorted by sparse-histogram fingerprint so every
  // arrival permutation of the same group maps to one cache key. Each
  // member's bounds are independent of its slot (side-A clamps and side-B
  // sums are per-member), so permuting is bit-identical — certified by
  // fused_sweep_test and plan_cache_test.
  std::vector<const QueryHistogram*> qs(queries);
  std::vector<std::vector<int>*> os(outs);
  if (plan_cache != nullptr && group > 1) {
    std::vector<uint64_t> fp(group);
    for (size_t fq = 0; fq < group; ++fq) {
      if (kind_ == Kind::k2D) {
        fp[fq] = SparseHistogramFingerprint(qs[fq]->sparse_2d);
      } else {
        // Combine the per-dimension fingerprints order-sensitively.
        fp[fq] = SparseHistogramFingerprint(qs[fq]->sparse_x) ^
                 (SparseHistogramFingerprint(qs[fq]->sparse_y) *
                  0x9e3779b97f4a7c15ull);
      }
    }
    std::vector<size_t> order(group);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&fp](size_t a, size_t b) { return fp[a] < fp[b]; });
    for (size_t i = 0; i < group; ++i) {
      qs[i] = queries[order[i]];
      os[i] = outs[order[i]];
    }
  }

  FusedPlan plan_2d;
  FusedPlan plan_x;
  FusedPlan plan_y;
  {
    // The built plan data is a pure function of the member sparse lists
    // (in canonical order) and the table configuration named by
    // feature_key_ + the plan-kind suffix, which is exactly the plan
    // cache's contract; a cache hit therefore yields a bit-identical plan.
    const auto make_plan = [&](const FlatHistograms& flat,
                               const std::vector<const std::vector<
                                   std::pair<int, int>>*>& sparse,
                               const std::vector<const std::vector<
                                   int32_t>*>& nbr,
                               const char* suffix, FusedPlan* plan) {
      for (size_t fq = 0; fq < group; ++fq) plan->nbr[fq] = nbr[fq];
      if (plan_cache != nullptr) {
        plan->data = plan_cache->GetOrBuild<FusedPlanData>(
            feature_key_ + suffix, sparse,
            [&] { return BuildFusedPlanData(flat, sparse, nbr); });
      } else {
        plan->data = std::make_shared<const FusedPlanData>(
            BuildFusedPlanData(flat, sparse, nbr));
      }
    };
    std::vector<const std::vector<std::pair<int, int>>*> sparse(group);
    std::vector<const std::vector<int32_t>*> nbr(group);
    if (kind_ == Kind::k2D) {
      for (size_t fq = 0; fq < group; ++fq) {
        sparse[fq] = &qs[fq]->sparse_2d;
        nbr[fq] = &qs[fq]->nbr_2d;
      }
      make_plan(flat_2d_, sparse, nbr, "#f2d", &plan_2d);
    } else {
      for (size_t fq = 0; fq < group; ++fq) {
        sparse[fq] = &qs[fq]->sparse_x;
        nbr[fq] = &qs[fq]->nbr_x;
      }
      make_plan(flat_x_, sparse, nbr, "#fx", &plan_x);
      for (size_t fq = 0; fq < group; ++fq) {
        sparse[fq] = &qs[fq]->sparse_y;
        nbr[fq] = &qs[fq]->nbr_y;
      }
      make_plan(flat_y_, sparse, nbr, "#fy", &plan_y);
    }
  }

  const SweepKernels kernels = SweepKernelsFor(level);
  const auto sweep_range = [&](size_t block_begin, size_t block_end) {
    for (size_t block = block_begin; block < block_end; ++block) {
      const size_t i0 = block * kSweepBlock;
      const size_t len = std::min(kSweepBlock, n - i0);
      if (kind_ == Kind::k2D) {
        alignas(64) int32_t t[kMaxFusionGroup][kSweepBlock];
        TransportBlockFused(flat_2d_, plan_2d, kernels, i0, len, t);
        for (size_t fq = 0; fq < group; ++fq) {
          std::vector<int>& out = *os[fq];
          const int total = qs[fq]->total;
          for (size_t j = 0; j < len; ++j) {
            const int longer =
                std::max(total, static_cast<int>(totals_[i0 + j]));
            out[i0 + j] = longer - t[fq][j];
          }
        }
      } else {
        alignas(64) int32_t tx[kMaxFusionGroup][kSweepBlock];
        alignas(64) int32_t ty[kMaxFusionGroup][kSweepBlock];
        TransportBlockFused(flat_x_, plan_x, kernels, i0, len, tx);
        TransportBlockFused(flat_y_, plan_y, kernels, i0, len, ty);
        for (size_t fq = 0; fq < group; ++fq) {
          std::vector<int>& out = *os[fq];
          const int total = qs[fq]->total;
          for (size_t j = 0; j < len; ++j) {
            const int longer =
                std::max(total, static_cast<int>(totals_[i0 + j]));
            out[i0 + j] =
                std::max(longer - tx[fq][j], longer - ty[fq][j]);
          }
        }
      }
    }
  };

  const unsigned workers =
      options != nullptr ? ResolveIntraQueryWorkers(*options) : 1;
  if (workers <= 1 || num_blocks <= 1) {
    sweep_range(0, num_blocks);
    return;
  }
  // Contiguous block ranges exactly like FastLowerBoundSweepParallel:
  // every worker serves the whole group over its own kSweepBlock-aligned
  // output slices, so any worker count is bit-identical.
  const size_t ranges = std::min<size_t>(workers, num_blocks);
  IntraQueryPool(*options).ParallelFor(
      ranges,
      [&](size_t r) {
        sweep_range(r * num_blocks / ranges, (r + 1) * num_blocks / ranges);
      },
      static_cast<unsigned>(ranges));
}

void HistogramTable::FastLowerBoundSweepFused(
    const std::vector<const QueryHistogram*>& queries,
    const std::vector<std::vector<int>*>& outs) const {
  for (size_t begin = 0; begin < queries.size();
       begin += kMaxFusionGroup) {
    const size_t end =
        std::min(queries.size(), begin + kMaxFusionGroup);
    SweepFusedChunk(
        std::vector<const QueryHistogram*>(queries.begin() + begin,
                                           queries.begin() + end),
        std::vector<std::vector<int>*>(outs.begin() + begin,
                                       outs.begin() + end),
        nullptr);
  }
}

void HistogramTable::FastLowerBoundSweepFusedParallel(
    const std::vector<const QueryHistogram*>& queries,
    const std::vector<std::vector<int>*>& outs,
    const KnnOptions& options) const {
  for (size_t begin = 0; begin < queries.size();
       begin += kMaxFusionGroup) {
    const size_t end =
        std::min(queries.size(), begin + kMaxFusionGroup);
    SweepFusedChunk(
        std::vector<const QueryHistogram*>(queries.begin() + begin,
                                           queries.begin() + end),
        std::vector<std::vector<int>*>(outs.begin() + begin,
                                       outs.begin() + end),
        &options);
  }
}

uint64_t HistogramTable::QueryBinSignature(const Trajectory& query) const {
  // splitmix64-style finalizer; the top six bits pick the mask bit, so
  // adjacent bin indices land on uncorrelated bits.
  const auto mix_bit = [](uint64_t v) -> uint64_t {
    v *= 0x9e3779b97f4a7c15ull;
    v ^= v >> 29;
    v *= 0xbf58476d1ce4e5b9ull;
    return 1ull << (v >> 58);
  };
  uint64_t sig = 0;
  for (const Point2& p : query) {
    if (kind_ == Kind::k2D) {
      const uint64_t bin =
          static_cast<uint64_t>(grid_.BinY(p.y)) *
              static_cast<uint64_t>(grid_.nx) +
          static_cast<uint64_t>(grid_.BinX(p.x));
      sig |= mix_bit(bin);
    } else {
      // Disjoint hash namespaces for the x and y subrange bins.
      sig |= mix_bit(static_cast<uint64_t>(grid_.BinX(p.x)) * 2u);
      sig |= mix_bit(static_cast<uint64_t>(grid_.BinY(p.y)) * 2u + 1u);
    }
  }
  return sig;
}

int HistogramTable::LowerBound(const Trajectory& query, uint32_t id) const {
  return LowerBound(MakeQueryHistogram(query), id);
}

}  // namespace edr
