// EDR kernel baseline: scalar (allocating) vs scalar-with-scratch vs
// bit-parallel, as DP cells/second across trajectory lengths (same-length
// pairs, including lengths off the 8-row group and 64-row word grid, and
// mixed-length pair sets shaped like the benchmark workloads), plus the
// end-to-end k-NN effect of the kernel + bounded-refinement rewiring.
//
// Emits JSON (stdout, or the file named by argv[1]) so future PRs have a
// machine-readable perf trajectory to regress against:
//
//   ./bench/bench_kernel BENCH_kernel.json
//
// Numbers are machine-dependent; treat the committed BENCH_kernel.json as
// a same-machine baseline for *ratios* (speedups), not absolute times.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/rng.h"
#include "core/trajectory.h"
#include "data/generators.h"
#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "pruning/combined.h"
#include "query/knn.h"

namespace edr {
namespace {

Trajectory MakeWalk(uint64_t seed, size_t length) {
  Rng rng(seed);
  Trajectory t;
  Point2 pos{0.0, 0.0};
  for (size_t i = 0; i < length; ++i) {
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, 0.4);
    pos.y += rng.Gaussian(0.0, 0.4);
  }
  return t;
}

double SecondsPerCall(const std::function<int()>& fn, int min_iters = 20,
                      double min_seconds = 0.2) {
  // Warm up (also sizes the scratch buffers so the timed region is
  // allocation-free where the kernel promises it).
  volatile int sink = fn();
  (void)sink;
  // Grow the batch until it runs min_seconds, then keep the fastest of
  // kBatches such batches: on a shared host one batch can read 20-30% slow.
  constexpr int kBatches = 3;
  int iters = min_iters;
  double best = 0.0;
  for (int timed = 0; timed < kBatches;) {
    const auto start = std::chrono::steady_clock::now();
    int acc = 0;
    for (int i = 0; i < iters; ++i) acc += fn();
    const auto stop = std::chrono::steady_clock::now();
    volatile int keep = acc;
    (void)keep;
    const double secs = std::chrono::duration<double>(stop - start).count();
    if (secs < min_seconds && iters < (1 << 22)) {
      iters *= 4;
      continue;
    }
    best = timed == 0 ? secs / iters : std::min(best, secs / iters);
    ++timed;
  }
  return best;
}

struct KernelRow {
  size_t length = 0;
  double scalar_s = 0.0;
  double scalar_scratch_s = 0.0;
  double bitparallel_s = 0.0;
};

/// A set of pairs with independently drawn lengths, timed as one batch:
/// mixed lengths are where the pattern/text orientation matters.
struct MixedRow {
  const char* name;
  size_t min_length;
  size_t max_length;
  bool normalized;
  double cells = 0.0;
  double scalar_scratch_s = 0.0;
  double bitparallel_s = 0.0;
};

constexpr size_t kMixedPairs = 200;

/// kMixedPairs (r, s) pairs of random walks with lengths uniform in
/// [min_length, max_length]; z-normalized per trajectory when asked, raw
/// (unit steps) otherwise.
std::vector<std::pair<Trajectory, Trajectory>> MixedPairs(const MixedRow& row,
                                                          uint64_t seed) {
  RandomWalkOptions options;
  options.count = 2 * kMixedPairs;
  options.min_length = row.min_length;
  options.max_length = row.max_length;
  options.seed = seed;
  TrajectoryDataset db = GenRandomWalk(options);
  if (row.normalized) db.NormalizeAll();
  std::vector<std::pair<Trajectory, Trajectory>> pairs;
  for (size_t i = 0; i < kMixedPairs; ++i) {
    pairs.emplace_back(db[2 * i], db[2 * i + 1]);
  }
  return pairs;
}

}  // namespace
}  // namespace edr

int main(int argc, char** argv) {
  using namespace edr;
  bench::WarnIfSingleCore();

  std::FILE* out = stdout;
  if (argc > 1) {
    out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
  }

  constexpr double kEps = 0.25;
  EdrScratch scratch;

  // --- Kernel micro: same-length pairs across the word-boundary range.
  const size_t lengths[] = {37, 64, 100, 128, 131, 199, 256, 512, 1024};
  std::vector<KernelRow> rows;
  for (const size_t len : lengths) {
    const Trajectory a = MakeWalk(2 * len + 1, len);
    const Trajectory b = MakeWalk(2 * len + 2, len);
    KernelRow row;
    row.length = len;
    row.scalar_s = SecondsPerCall([&] { return EdrDistance(a, b, kEps); });
    row.scalar_scratch_s = SecondsPerCall(
        [&] { return EdrDistanceWith(EdrKernel::kScalar, scratch, a, b, kEps); });
    row.bitparallel_s =
        SecondsPerCall([&] { return EdrDistanceBitParallel(a, b, kEps, scratch); });
    rows.push_back(row);
    std::fprintf(stderr, "len=%zu scalar=%.0fns scratch=%.0fns bitpar=%.0fns (%.1fx)\n",
                 len, row.scalar_s * 1e9, row.scalar_scratch_s * 1e9,
                 row.bitparallel_s * 1e9, row.scalar_s / row.bitparallel_s);
  }

  // --- Kernel micro, mixed lengths: the shapes of the benchmark workloads
  // (normalized walks of 30-256 and 60-140 points, raw walks of 20-60).
  std::vector<MixedRow> mixed = {{"walk_norm_30_256", 30, 256, true},
                                 {"walk_raw_20_60", 20, 60, false},
                                 {"walk_norm_60_140", 60, 140, true}};
  for (size_t i = 0; i < mixed.size(); ++i) {
    MixedRow& row = mixed[i];
    const auto pairs = MixedPairs(row, 17 + i);
    for (const auto& [a, b] : pairs) {
      row.cells += static_cast<double>(a.size()) * static_cast<double>(b.size());
    }
    row.scalar_scratch_s = SecondsPerCall([&] {
      int acc = 0;
      for (const auto& [a, b] : pairs) {
        acc += EdrDistanceWith(EdrKernel::kScalar, scratch, a, b, kEps);
      }
      return acc;
    });
    row.bitparallel_s = SecondsPerCall([&] {
      int acc = 0;
      for (const auto& [a, b] : pairs) {
        acc += EdrDistanceBitParallel(a, b, kEps, scratch);
      }
      return acc;
    });
    std::fprintf(stderr, "%s: scratch=%.2f bitpar=%.2f Gcell/s (%.1fx)\n",
                 row.name, row.cells / row.scalar_scratch_s / 1e9,
                 row.cells / row.bitparallel_s / 1e9,
                 row.scalar_scratch_s / row.bitparallel_s);
  }

  // --- End-to-end: combined searcher and sequential scan on a random-walk
  // dataset, scalar kernel vs bit-parallel kernel (both with the bounded
  // refinement wiring; identical results certified below).
  RandomWalkOptions walk_options;
  walk_options.count = 400;
  walk_options.min_length = 60;
  walk_options.max_length = 256;
  walk_options.seed = 5;
  const TrajectoryDataset db = GenRandomWalk(walk_options);
  std::vector<Trajectory> queries;
  for (uint64_t q = 0; q < 5; ++q) queries.push_back(MakeWalk(900 + q, 128));
  constexpr size_t kK = 20;

  CombinedOptions combined_options;
  combined_options.max_triangle = 100;

  struct EndToEnd {
    double seq_s = 0.0;
    double combined_s = 0.0;
  };
  EndToEnd e2e[2];
  std::vector<KnnResult> reference;
  bool lossless = true;
  for (const EdrKernel kernel : {EdrKernel::kScalar, EdrKernel::kBitParallel}) {
    SetDefaultEdrKernel(kernel);
    const int slot = kernel == EdrKernel::kScalar ? 0 : 1;
    const CombinedKnnSearcher searcher(db, kEps, combined_options);
    for (int rep = 0; rep < 3; ++rep) {
      double seq_s = 0.0;
      double comb_s = 0.0;
      for (size_t q = 0; q < queries.size(); ++q) {
        const KnnResult seq = SequentialScanKnn(db, queries[q], kK, kEps);
        const KnnResult comb = searcher.Knn(queries[q], kK);
        seq_s += seq.stats.elapsed_seconds;
        comb_s += comb.stats.elapsed_seconds;
        if (kernel == EdrKernel::kScalar && rep == 0) {
          reference.push_back(seq);
        }
        lossless = lossless && SameKnnDistances(reference[q], seq) &&
                   SameKnnDistances(reference[q], comb);
      }
      // Keep the fastest of three repetitions per kernel.
      seq_s /= static_cast<double>(queries.size());
      comb_s /= static_cast<double>(queries.size());
      if (rep == 0 || seq_s < e2e[slot].seq_s) e2e[slot].seq_s = seq_s;
      if (rep == 0 || comb_s < e2e[slot].combined_s) {
        e2e[slot].combined_s = comb_s;
      }
    }
  }
  SetDefaultEdrKernel(EdrKernel::kBitParallel);

  // --- JSON out.
  std::fprintf(out, "{\n  \"bench\": \"edr_kernel\",\n  \"epsilon\": %.3f,\n", kEps);
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    const double cells =
        static_cast<double>(r.length) * static_cast<double>(r.length);
    std::fprintf(out,
                 "    {\"length\": %zu, \"scalar_ns\": %.1f, "
                 "\"scalar_scratch_ns\": %.1f, \"bitparallel_ns\": %.1f, "
                 "\"scalar_cells_per_sec\": %.3e, "
                 "\"bitparallel_cells_per_sec\": %.3e, "
                 "\"speedup_vs_scalar\": %.2f}%s\n",
                 r.length, r.scalar_s * 1e9, r.scalar_scratch_s * 1e9,
                 r.bitparallel_s * 1e9, cells / r.scalar_s,
                 cells / r.bitparallel_s, r.scalar_s / r.bitparallel_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"mixed\": [\n");
  for (size_t i = 0; i < mixed.size(); ++i) {
    const MixedRow& r = mixed[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"min_length\": %zu, "
                 "\"max_length\": %zu, \"pairs\": %zu, \"cells\": %.0f, "
                 "\"scalar_scratch_cells_per_sec\": %.3e, "
                 "\"bitparallel_cells_per_sec\": %.3e, "
                 "\"speedup_vs_scalar_scratch\": %.2f}%s\n",
                 r.name, r.min_length, r.max_length, kMixedPairs, r.cells,
                 r.cells / r.scalar_scratch_s, r.cells / r.bitparallel_s,
                 r.scalar_scratch_s / r.bitparallel_s,
                 i + 1 < mixed.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  bench::FprintHostJson(out);
  std::fprintf(out,
               "  \"knn\": {\"db_size\": %zu, \"k\": %zu, \"queries\": %zu,\n"
               "    \"seqscan_scalar_s\": %.6f, \"seqscan_bitparallel_s\": %.6f,\n"
               "    \"combined_scalar_s\": %.6f, \"combined_bitparallel_s\": %.6f,\n"
               "    \"seqscan_speedup\": %.2f, \"combined_speedup\": %.2f,\n"
               "    \"lossless\": %s}\n",
               db.size(), kK, queries.size(), e2e[0].seq_s, e2e[1].seq_s,
               e2e[0].combined_s, e2e[1].combined_s,
               e2e[0].seq_s / e2e[1].seq_s,
               e2e[0].combined_s / e2e[1].combined_s,
               lossless ? "true" : "false");
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  return lossless ? 0 : 1;
}
