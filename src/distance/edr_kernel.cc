#include "distance/edr_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/cpu.h"

#if defined(__SSE2__) && !defined(EDR_DISABLE_SIMD)
#include <emmintrin.h>
#define EDR_EDRKERNEL_SSE2 1
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(EDR_DISABLE_SIMD)
#include <immintrin.h>
#define EDR_EDRKERNEL_AVX2 1
#define EDR_EDRKERNEL_AVX512 1
#endif

#if defined(__aarch64__) && !defined(EDR_DISABLE_SIMD)
#include <arm_neon.h>
#define EDR_EDRKERNEL_NEON 1
#endif

namespace edr {

namespace {

std::atomic<EdrKernel> g_default_kernel{EdrKernel::kBitParallel};

// ---------------------------------------------------------------------------
// SoA pattern copies. The match tests below stream over these flat arrays
// with branch-free compares; the compiler vectorizes them, which it cannot
// do over the AoS Point2/Point3 layout inside Trajectory.
//
// Rows [m, m8) of the copy, m8 = EdrScratch::PaddedRows(m), hold quiet NaN.
// |NaN - s| <= epsilon is false under the ordered compare of every level
// and under the scalar Match(), so padded rows are permanent mismatches
// and every builder runs whole 8-row groups, with no per-column scalar
// tail. Rows above the pattern never reach the tracked row-m bit (see
// MyersCore), so the padding leaves every distance unchanged.
// ---------------------------------------------------------------------------

constexpr double kPadRow = std::numeric_limits<double>::quiet_NaN();

void FillPattern(EdrScratch& sc, const Trajectory& t) {
  double* px = sc.px();
  double* py = sc.py();
  for (size_t i = 0; i < t.size(); ++i) {
    px[i] = t[i].x;
    py[i] = t[i].y;
  }
  const size_t m8 = EdrScratch::PaddedRows(t.size());
  std::fill(px + t.size(), px + m8, kPadRow);
  std::fill(py + t.size(), py + m8, kPadRow);
}

void FillPattern(EdrScratch& sc, const Trajectory3& t) {
  double* px = sc.px();
  double* py = sc.py();
  double* pz = sc.pz();
  for (size_t i = 0; i < t.size(); ++i) {
    px[i] = t[i].x;
    py[i] = t[i].y;
    pz[i] = t[i].z;
  }
  const size_t m8 = EdrScratch::PaddedRows(t.size());
  std::fill(px + t.size(), px + m8, kPadRow);
  std::fill(py + t.size(), py + m8, kPadRow);
  std::fill(pz + t.size(), pz + m8, kPadRow);
}

// Per-column match bit-vector: bit i of eq is set iff pattern element i
// epsilon-matches the current text element (Definition 1, boundary
// inclusive — exactly the Match() predicate of the scalar DP).
//
// Two stages so the compiler can vectorize: a branch-free compare loop
// writing one 0/1 byte per pattern element, then a multiply-pack turning
// each group of eight bool bytes into eight bits (the partial products of
// kPackMagic land on pairwise-distinct bit positions, so no carries and
// the pack is exact). The builders take m8, the padded row count, so
// every SIMD level runs whole lane groups; bytes [m8, words*64) are zeroed
// once per call by the caller, so with the NaN rows every row at or above
// m is a permanent mismatch.
constexpr uint64_t kPackMagic = 0x0102040810204080ULL;

inline void PackMatchBytes(const uint8_t* match, size_t words, uint64_t* eq) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = 0;
    for (size_t g = 0; g < 8; ++g) {
      uint64_t chunk;
      std::memcpy(&chunk, match + w * 64 + g * 8, sizeof(chunk));
      bits |= ((chunk * kPackMagic) >> 56) << (8 * g);
    }
    eq[w] = bits;
  }
}

// Scalar reference bodies: one 0/1 byte per padded pattern row, then the
// multiply-pack. Every platform compiles these; they are also the kScalar
// dispatch target and the only path under EDR_DISABLE_SIMD.

inline void BuildEqScalar(const double* px, const double* py, size_t m8,
                          Point2 s, double epsilon, uint8_t* match,
                          size_t words, uint64_t* eq) {
  for (size_t i = 0; i < m8; ++i) {
    match[i] = static_cast<uint8_t>((std::fabs(px[i] - s.x) <= epsilon) &
                                    (std::fabs(py[i] - s.y) <= epsilon));
  }
  PackMatchBytes(match, words, eq);
}

inline void BuildEq3Scalar(const double* px, const double* py,
                           const double* pz, size_t m8, Point3 s,
                           double epsilon, uint8_t* match, size_t words,
                           uint64_t* eq) {
  for (size_t i = 0; i < m8; ++i) {
    match[i] = static_cast<uint8_t>((std::fabs(px[i] - s.x) <= epsilon) &
                                    (std::fabs(py[i] - s.y) <= epsilon) &
                                    (std::fabs(pz[i] - s.z) <= epsilon));
  }
  PackMatchBytes(match, words, eq);
}

#if defined(EDR_EDRKERNEL_SSE2)

// SSE2 path (baseline on x86-64): |d| <= eps computed exactly as the
// scalar Match() — fabs is a sign-bit clear, the compare is the same
// IEEE <= — and two lanes at a time drop straight into the bit-vector via
// movemask, skipping the byte staging buffer entirely. The wider-lane
// variants below repeat the same per-lane operations, so every level
// builds the identical bit-vector.

inline void BuildEqSse2(const double* px, const double* py, size_t m8,
                        Point2 s, double epsilon, uint8_t* /*match*/,
                        size_t words, uint64_t* eq) {
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d eps = _mm_set1_pd(epsilon);
  const __m128d sx = _mm_set1_pd(s.x);
  const __m128d sy = _mm_set1_pd(s.y);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 2) {
      const __m128d cx = _mm_cmple_pd(
          _mm_andnot_pd(sign, _mm_sub_pd(_mm_loadu_pd(px + base + k), sx)),
          eps);
      const __m128d cy = _mm_cmple_pd(
          _mm_andnot_pd(sign, _mm_sub_pd(_mm_loadu_pd(py + base + k), sy)),
          eps);
      bits |= static_cast<uint64_t>(_mm_movemask_pd(_mm_and_pd(cx, cy)))
              << k;
    }
    eq[w] = bits;
  }
}

inline void BuildEq3Sse2(const double* px, const double* py,
                         const double* pz, size_t m8, Point3 s, double epsilon,
                         uint8_t* /*match*/, size_t words, uint64_t* eq) {
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d eps = _mm_set1_pd(epsilon);
  const __m128d sx = _mm_set1_pd(s.x);
  const __m128d sy = _mm_set1_pd(s.y);
  const __m128d sz = _mm_set1_pd(s.z);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 2) {
      const __m128d cx = _mm_cmple_pd(
          _mm_andnot_pd(sign, _mm_sub_pd(_mm_loadu_pd(px + base + k), sx)),
          eps);
      const __m128d cy = _mm_cmple_pd(
          _mm_andnot_pd(sign, _mm_sub_pd(_mm_loadu_pd(py + base + k), sy)),
          eps);
      const __m128d cz = _mm_cmple_pd(
          _mm_andnot_pd(sign, _mm_sub_pd(_mm_loadu_pd(pz + base + k), sz)),
          eps);
      bits |= static_cast<uint64_t>(
                  _mm_movemask_pd(_mm_and_pd(_mm_and_pd(cx, cy), cz)))
              << k;
    }
    eq[w] = bits;
  }
}

#endif  // defined(EDR_EDRKERNEL_SSE2)

#if defined(EDR_EDRKERNEL_AVX2)

__attribute__((target("avx2"))) void BuildEqAvx2(const double* px,
                                                 const double* py, size_t m8,
                                                 Point2 s, double epsilon,
                                                 uint8_t* /*match*/,
                                                 size_t words, uint64_t* eq) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d eps = _mm256_set1_pd(epsilon);
  const __m256d sx = _mm256_set1_pd(s.x);
  const __m256d sy = _mm256_set1_pd(s.y);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 4) {
      const __m256d cx = _mm256_cmp_pd(
          _mm256_andnot_pd(sign,
                           _mm256_sub_pd(_mm256_loadu_pd(px + base + k), sx)),
          eps, _CMP_LE_OQ);
      const __m256d cy = _mm256_cmp_pd(
          _mm256_andnot_pd(sign,
                           _mm256_sub_pd(_mm256_loadu_pd(py + base + k), sy)),
          eps, _CMP_LE_OQ);
      bits |= static_cast<uint64_t>(_mm256_movemask_pd(_mm256_and_pd(cx, cy)))
              << k;
    }
    eq[w] = bits;
  }
}

__attribute__((target("avx2"))) void BuildEq3Avx2(
    const double* px, const double* py, const double* pz, size_t m8, Point3 s,
    double epsilon, uint8_t* /*match*/, size_t words, uint64_t* eq) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d eps = _mm256_set1_pd(epsilon);
  const __m256d sx = _mm256_set1_pd(s.x);
  const __m256d sy = _mm256_set1_pd(s.y);
  const __m256d sz = _mm256_set1_pd(s.z);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 4) {
      const __m256d cx = _mm256_cmp_pd(
          _mm256_andnot_pd(sign,
                           _mm256_sub_pd(_mm256_loadu_pd(px + base + k), sx)),
          eps, _CMP_LE_OQ);
      const __m256d cy = _mm256_cmp_pd(
          _mm256_andnot_pd(sign,
                           _mm256_sub_pd(_mm256_loadu_pd(py + base + k), sy)),
          eps, _CMP_LE_OQ);
      const __m256d cz = _mm256_cmp_pd(
          _mm256_andnot_pd(sign,
                           _mm256_sub_pd(_mm256_loadu_pd(pz + base + k), sz)),
          eps, _CMP_LE_OQ);
      bits |= static_cast<uint64_t>(_mm256_movemask_pd(
                  _mm256_and_pd(_mm256_and_pd(cx, cy), cz)))
              << k;
    }
    eq[w] = bits;
  }
}

#endif  // defined(EDR_EDRKERNEL_AVX2)

#if defined(EDR_EDRKERNEL_AVX512)

// AVX-512 drops the movemask: the compares produce mask registers whose
// bits go straight into the eq word, eight rows per step.

__attribute__((target("avx512f"))) void BuildEqAvx512(
    const double* px, const double* py, size_t m8, Point2 s, double epsilon,
    uint8_t* /*match*/, size_t words, uint64_t* eq) {
  const __m512d eps = _mm512_set1_pd(epsilon);
  const __m512d sx = _mm512_set1_pd(s.x);
  const __m512d sy = _mm512_set1_pd(s.y);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 8) {
      const __mmask8 cx = _mm512_cmp_pd_mask(
          _mm512_abs_pd(_mm512_sub_pd(_mm512_loadu_pd(px + base + k), sx)),
          eps, _CMP_LE_OQ);
      const __mmask8 cy = _mm512_cmp_pd_mask(
          _mm512_abs_pd(_mm512_sub_pd(_mm512_loadu_pd(py + base + k), sy)),
          eps, _CMP_LE_OQ);
      bits |= static_cast<uint64_t>(cx & cy) << k;
    }
    eq[w] = bits;
  }
}

__attribute__((target("avx512f"))) void BuildEq3Avx512(
    const double* px, const double* py, const double* pz, size_t m8, Point3 s,
    double epsilon, uint8_t* /*match*/, size_t words, uint64_t* eq) {
  const __m512d eps = _mm512_set1_pd(epsilon);
  const __m512d sx = _mm512_set1_pd(s.x);
  const __m512d sy = _mm512_set1_pd(s.y);
  const __m512d sz = _mm512_set1_pd(s.z);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 8) {
      const __mmask8 cx = _mm512_cmp_pd_mask(
          _mm512_abs_pd(_mm512_sub_pd(_mm512_loadu_pd(px + base + k), sx)),
          eps, _CMP_LE_OQ);
      const __mmask8 cy = _mm512_cmp_pd_mask(
          _mm512_abs_pd(_mm512_sub_pd(_mm512_loadu_pd(py + base + k), sy)),
          eps, _CMP_LE_OQ);
      const __mmask8 cz = _mm512_cmp_pd_mask(
          _mm512_abs_pd(_mm512_sub_pd(_mm512_loadu_pd(pz + base + k), sz)),
          eps, _CMP_LE_OQ);
      bits |= static_cast<uint64_t>(cx & cy & cz) << k;
    }
    eq[w] = bits;
  }
}

#endif  // defined(EDR_EDRKERNEL_AVX512)

#if defined(EDR_EDRKERNEL_NEON)

// NEON: FABD gives |d| with the same single rounding as fabs(a - b); the
// two compare lanes land in the eq word via lane extracts.

inline void BuildEqNeon(const double* px, const double* py, size_t m8,
                        Point2 s, double epsilon, uint8_t* /*match*/,
                        size_t words, uint64_t* eq) {
  const float64x2_t eps = vdupq_n_f64(epsilon);
  const float64x2_t sx = vdupq_n_f64(s.x);
  const float64x2_t sy = vdupq_n_f64(s.y);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 2) {
      const uint64x2_t cx = vcleq_f64(vabdq_f64(vld1q_f64(px + base + k), sx),
                                      eps);
      const uint64x2_t cy = vcleq_f64(vabdq_f64(vld1q_f64(py + base + k), sy),
                                      eps);
      const uint64x2_t c = vandq_u64(cx, cy);
      bits |= ((vgetq_lane_u64(c, 0) & 1) | ((vgetq_lane_u64(c, 1) & 1) << 1))
              << k;
    }
    eq[w] = bits;
  }
}

inline void BuildEq3Neon(const double* px, const double* py, const double* pz,
                         size_t m8, Point3 s, double epsilon,
                         uint8_t* /*match*/, size_t words, uint64_t* eq) {
  const float64x2_t eps = vdupq_n_f64(epsilon);
  const float64x2_t sx = vdupq_n_f64(s.x);
  const float64x2_t sy = vdupq_n_f64(s.y);
  const float64x2_t sz = vdupq_n_f64(s.z);
  for (size_t w = 0; w < words; ++w) {
    const size_t base = w * 64;
    const size_t limit = std::min<size_t>(64, m8 - base);
    uint64_t bits = 0;
    for (size_t k = 0; k < limit; k += 2) {
      const uint64x2_t cx = vcleq_f64(vabdq_f64(vld1q_f64(px + base + k), sx),
                                      eps);
      const uint64x2_t cy = vcleq_f64(vabdq_f64(vld1q_f64(py + base + k), sy),
                                      eps);
      const uint64x2_t cz = vcleq_f64(vabdq_f64(vld1q_f64(pz + base + k), sz),
                                      eps);
      const uint64x2_t c = vandq_u64(vandq_u64(cx, cy), cz);
      bits |= ((vgetq_lane_u64(c, 0) & 1) | ((vgetq_lane_u64(c, 1) & 1) << 1))
              << k;
    }
    eq[w] = bits;
  }
}

#endif  // defined(EDR_EDRKERNEL_NEON)

using Eq2Fn = void (*)(const double*, const double*, size_t, Point2, double,
                       uint8_t*, size_t, uint64_t*);
using Eq3Fn = void (*)(const double*, const double*, const double*, size_t,
                       Point3, double, uint8_t*, size_t, uint64_t*);

/// Match-vector builder for a dispatch level, resolved once per
/// BitParallelEdr call from ActiveKernelLevel(). Levels not compiled into
/// this build fall back to scalar (ActiveKernelLevel never hands them out;
/// the mapping just stays total).
Eq2Fn BuildEqFor(KernelLevel level) {
  switch (level) {
#if defined(EDR_EDRKERNEL_AVX512)
    case KernelLevel::kAvx512: return BuildEqAvx512;
#endif
#if defined(EDR_EDRKERNEL_AVX2)
    case KernelLevel::kAvx2: return BuildEqAvx2;
#endif
#if defined(EDR_EDRKERNEL_SSE2)
    case KernelLevel::kSse2: return BuildEqSse2;
#endif
#if defined(EDR_EDRKERNEL_NEON)
    case KernelLevel::kNeon: return BuildEqNeon;
#endif
    default: return BuildEqScalar;
  }
}

Eq3Fn BuildEq3For(KernelLevel level) {
  switch (level) {
#if defined(EDR_EDRKERNEL_AVX512)
    case KernelLevel::kAvx512: return BuildEq3Avx512;
#endif
#if defined(EDR_EDRKERNEL_AVX2)
    case KernelLevel::kAvx2: return BuildEq3Avx2;
#endif
#if defined(EDR_EDRKERNEL_SSE2)
    case KernelLevel::kSse2: return BuildEq3Sse2;
#endif
#if defined(EDR_EDRKERNEL_NEON)
    case KernelLevel::kNeon: return BuildEq3Neon;
#endif
    default: return BuildEq3Scalar;
  }
}

// ---------------------------------------------------------------------------
// Myers' bit-parallel recurrence (Myers 1999, with Hyyro's carry-in
// correction as implemented in edlib). The pattern is whichever trajectory
// OrientationCost below prefers; each machine word holds 64 DP rows as
// vertical-delta bits (vp: +1, vn: -1), and one column of the DP advances
// with ~15 word ops per word. score tracks D[m][j] via the horizontal-delta
// bits at row m.
//
// Unused high bits of the last word start as vp=1 garbage; every operation
// propagates information strictly upward (addition carries, shifts), so
// they never reach the tracked row-m bit and no masking is needed.
//
// `bound` enables Hyyro-style early abandoning: adjacent column scores
// differ by at most 1, so D[m][n] >= score - (columns remaining); once that
// exceeds the bound the scan stops and returns it (a certified lower bound
// strictly greater than the bound). Exact callers pass kEdrNoBound.
// ---------------------------------------------------------------------------

template <typename BuildEqFn>
int MyersCore(size_t m, size_t n, int bound, EdrScratch& sc,
              BuildEqFn&& build_eq) {
  const size_t words = (m + 63) / 64;
  uint64_t* vp = sc.vp();
  uint64_t* vn = sc.vn();
  uint64_t* eq = sc.eq();
  std::fill_n(vp, words, ~uint64_t{0});
  std::fill_n(vn, words, uint64_t{0});
  const uint64_t last_bit = uint64_t{1} << ((m - 1) & 63);
  const size_t last_word = words - 1;
  int score = static_cast<int>(m);

  for (size_t j = 0; j < n; ++j) {
    build_eq(j, eq);
    int hin = 1;  // D[0][j] - D[0][j-1] = +1: deleting text costs 1 per step.
    for (size_t w = 0; w < words; ++w) {
      uint64_t eqw = eq[w];
      const uint64_t pv = vp[w];
      const uint64_t mv = vn[w];
      const uint64_t xv = eqw | mv;
      eqw |= static_cast<uint64_t>(hin < 0);
      const uint64_t xh = (((eqw & pv) + pv) ^ pv) | eqw;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      if (w == last_word) {
        if (ph & last_bit) {
          ++score;
        } else if (mh & last_bit) {
          --score;
        }
      }
      const int hout = (ph >> 63) ? 1 : ((mh >> 63) ? -1 : 0);
      ph = (ph << 1) | static_cast<uint64_t>(hin > 0);
      mh = (mh << 1) | static_cast<uint64_t>(hin < 0);
      vp[w] = mh | ~(xv | ph);
      vn[w] = ph & xv;
      hin = hout;
    }
    const int floor_now = score - static_cast<int>(n - 1 - j);
    if (floor_now > bound) return floor_now;
  }
  return score;
}

// Orientation cost model. EDR is symmetric, so either trajectory can be
// the pattern; a column over a pattern of p rows costs ceil(p/64) Myers
// word-steps, ceil(p/8) compare groups of the match build and a fixed
// per-column overhead (builder call, broadcasts, abandon test), and there
// is one column per text point. The weights 3 : 1 : 2 are a least squares
// split of ns/column at AVX-512 (~3.8 ns per word, ~1.4 per group, ~2.9
// per column; docs/ALGORITHMS.md section 1). They are the same at every
// level, so the orientation is a pure function of the two lengths.
constexpr size_t kWordCost = 3;
constexpr size_t kGroupCost = 1;
constexpr size_t kColumnCost = 2;

constexpr size_t OrientationCost(size_t pattern, size_t text) {
  return (kWordCost * ((pattern + 63) / 64) +
          kGroupCost * ((pattern + 7) / 8) + kColumnCost) *
         text;
}

template <typename TrajectoryT>
int BitParallelEdr(const TrajectoryT& r, const TrajectoryT& s, double epsilon,
                   int bound, EdrScratch& sc) {
  if (r.empty()) return static_cast<int>(s.size());
  if (s.empty()) return static_cast<int>(r.size());
  const int length_bound = static_cast<int>(
      r.size() > s.size() ? r.size() - s.size() : s.size() - r.size());
  if (length_bound > bound) return length_bound;

  // Start from the shorter trajectory as the pattern (so ties keep it) and
  // swap only when the other orientation is strictly cheaper.
  const TrajectoryT* pat = &r;
  const TrajectoryT* txt = &s;
  if (pat->size() > txt->size()) std::swap(pat, txt);
  if (OrientationCost(txt->size(), pat->size()) <
      OrientationCost(pat->size(), txt->size())) {
    std::swap(pat, txt);
  }
  const size_t m = pat->size();
  const size_t n = txt->size();

  sc.ReservePattern(m);
  FillPattern(sc, *pat);
  const double* px = sc.px();
  const double* py = sc.py();
  const size_t m8 = EdrScratch::PaddedRows(m);
  const size_t words = (m + 63) / 64;
  uint8_t* match = sc.match();
  std::fill(match + m8, match + words * 64, uint8_t{0});
  if constexpr (std::is_same_v<TrajectoryT, Trajectory3>) {
    const Eq3Fn build_eq3 = BuildEq3For(ActiveKernelLevel());
    const double* pz = sc.pz();
    const TrajectoryT& text = *txt;
    return MyersCore(m, n, bound, sc, [&](size_t j, uint64_t* eq) {
      build_eq3(px, py, pz, m8, text[j], epsilon, match, words, eq);
    });
  } else {
    const Eq2Fn build_eq2 = BuildEqFor(ActiveKernelLevel());
    const TrajectoryT& text = *txt;
    return MyersCore(m, n, bound, sc, [&](size_t j, uint64_t* eq) {
      build_eq2(px, py, m8, text[j], epsilon, match, words, eq);
    });
  }
}

// ---------------------------------------------------------------------------
// Scalar kernels, identical cell-by-cell to elastic::Edr / elastic::
// EdrBounded (unbanded) but running out of the reusable scratch rows
// instead of allocating two vectors per call.
// ---------------------------------------------------------------------------

template <typename TrajectoryT>
int ScalarEdr(const TrajectoryT& r, const TrajectoryT& s, double epsilon,
              EdrScratch& sc) {
  const size_t m = r.size();
  const size_t n = s.size();
  if (m == 0) return static_cast<int>(n);
  if (n == 0) return static_cast<int>(m);

  sc.ReserveRows(n);
  int* prev = sc.prev_row();
  int* curr = sc.curr_row();
  for (size_t j = 0; j <= n; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= m; ++i) {
    curr[0] = static_cast<int>(i);
    for (size_t j = 1; j <= n; ++j) {
      const int subcost = Match(r[i - 1], s[j - 1], epsilon) ? 0 : 1;
      curr[j] = std::min({prev[j - 1] + subcost, prev[j] + 1, curr[j - 1] + 1});
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

template <typename TrajectoryT>
int ScalarEdrBounded(const TrajectoryT& r, const TrajectoryT& s,
                     double epsilon, int bound, EdrScratch& sc) {
  const size_t m = r.size();
  const size_t n = s.size();
  if (m == 0) return static_cast<int>(n);
  if (n == 0) return static_cast<int>(m);

  const int length_bound = static_cast<int>(
      m > n ? m - n : n - m);
  if (length_bound > bound) return length_bound;

  sc.ReserveRows(n);
  int* prev = sc.prev_row();
  int* curr = sc.curr_row();
  for (size_t j = 0; j <= n; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= m; ++i) {
    curr[0] = static_cast<int>(i);
    int row_min = curr[0];
    for (size_t j = 1; j <= n; ++j) {
      const int subcost = Match(r[i - 1], s[j - 1], epsilon) ? 0 : 1;
      curr[j] = std::min({prev[j - 1] + subcost, prev[j] + 1, curr[j - 1] + 1});
      row_min = std::min(row_min, curr[j]);
    }
    // Every edit path crosses every row, so the row minimum lower-bounds
    // the final value; above the bound the scan can stop.
    if (row_min > bound) return row_min;
    std::swap(prev, curr);
  }
  return prev[n];
}

}  // namespace

const char* EdrKernelName(EdrKernel kernel) {
  switch (kernel) {
    case EdrKernel::kScalar: return "scalar";
    case EdrKernel::kBitParallel: return "bit-parallel";
  }
  return "?";
}

EdrKernel DefaultEdrKernel() {
  return g_default_kernel.load(std::memory_order_relaxed);
}

void SetDefaultEdrKernel(EdrKernel kernel) {
  g_default_kernel.store(kernel, std::memory_order_relaxed);
}

EdrScratch& ThreadLocalEdrScratch() {
  static thread_local EdrScratch scratch;
  return scratch;
}

int EdrDistanceBitParallel(const Trajectory& r, const Trajectory& s,
                           double epsilon, EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch);
}

int EdrDistanceBitParallel(const Trajectory3& r, const Trajectory3& s,
                           double epsilon, EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch);
}

int EdrDistanceBitParallelBounded(const Trajectory& r, const Trajectory& s,
                                  double epsilon, int bound,
                                  EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, std::min(bound, kEdrNoBound), scratch);
}

int EdrDistanceBitParallelBounded(const Trajectory3& r, const Trajectory3& s,
                                  double epsilon, int bound,
                                  EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, std::min(bound, kEdrNoBound), scratch);
}

int EdrDistanceWith(EdrKernel kernel, EdrScratch& scratch, const Trajectory& r,
                    const Trajectory& s, double epsilon) {
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch)
             : ScalarEdr(r, s, epsilon, scratch);
}

int EdrDistanceWith(EdrKernel kernel, EdrScratch& scratch,
                    const Trajectory3& r, const Trajectory3& s,
                    double epsilon) {
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch)
             : ScalarEdr(r, s, epsilon, scratch);
}

int EdrDistanceBoundedWith(EdrKernel kernel, EdrScratch& scratch,
                           const Trajectory& r, const Trajectory& s,
                           double epsilon, int bound) {
  bound = std::min(bound, kEdrNoBound);
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, bound, scratch)
             : ScalarEdrBounded(r, s, epsilon, bound, scratch);
}

int EdrDistanceBoundedWith(EdrKernel kernel, EdrScratch& scratch,
                           const Trajectory3& r, const Trajectory3& s,
                           double epsilon, int bound) {
  bound = std::min(bound, kEdrNoBound);
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, bound, scratch)
             : ScalarEdrBounded(r, s, epsilon, bound, scratch);
}

}  // namespace edr
