#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/dataset.h"
#include "core/rng.h"
#include "data/generators.h"
#include "distance/edr_kernel.h"
#include "pruning/combined.h"
#include "pruning/histogram.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram.h"
#include "query/engine.h"
#include "query/feature_cache.h"
#include "query/knn.h"
#include "query/plan_cache.h"
#include "query/scheduler.h"
#include "query/thread_pool.h"

namespace edr::bench_e2e {
namespace {

// The paper's settings: normalized-data epsilon and k = 20, answered by
// the combined 2HPN searcher (its best) with 100 near-triangle references.
constexpr double kEpsilon = 0.25;
constexpr size_t kK = 20;
constexpr size_t kMaxTriangle = 100;

// Query work runs on an explicit pool of two workers plus the calling
// thread — three threads on the four-core reference host — never on
// ThreadPool::Global(), which the engine's set-up builds use internally.
constexpr unsigned kPoolWorkers = 2;
constexpr unsigned kQueryThreads = kPoolWorkers + 1;

// Set-up is repeated and its median reported, so setup_s never rests on
// one sample of a few tens of milliseconds.
constexpr int kSetupRepeats = 3;
// Tickets a short_stream client keeps outstanding.
constexpr size_t kOutstanding = 8;
constexpr size_t kHotQueries = 32;
// The traced run alternates untraced and traced segments of the timed
// phase; the qps of the two kinds gives trace.overhead_frac.
constexpr int kTraceSegments = 8;
// Root ids of set-up and probe spans start here, clear of op ids.
constexpr uint64_t kFirstRootId = uint64_t{1} << 40;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + tag * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t Scaled(size_t n, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(
                             static_cast<double>(n) * scale)));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, or NaN when fewer than ten samples lie beyond
/// it (such a percentile is not reported).
double Percentile(std::vector<double> v, double p) {
  const size_t n = v.size();
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - rank < 10) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

enum class Client {
  kDirect,   // one client calling the searcher and waiting for each answer
  kSession,  // one client keeping kOutstanding QuerySession tickets open
};

struct Op {
  uint32_t query = 0;
  bool range = false;
  int radius = 0;
};

struct Workload {
  Client client = Client::kDirect;
  TrajectoryDataset db;
  std::vector<Trajectory> queries;
  /// The seeded op sequence, the same on every run of a seed. The first
  /// warmup_ops ops warm up; the timed phase continues from there and
  /// wraps around if it runs past the end.
  std::vector<Op> ops;
  size_t warmup_ops = 0;
};

TrajectoryDataset Walks(size_t count, size_t min_length, size_t max_length,
                        uint64_t seed, bool normalize) {
  RandomWalkOptions options;
  options.count = count;
  options.min_length = min_length;
  options.max_length = max_length;
  options.seed = seed;
  TrajectoryDataset walks = GenRandomWalk(options);
  if (normalize) walks.NormalizeAll();
  return walks;
}

/// Random walks whose lengths are stratified instead of drawn: walk i has
/// length min + (i * 97 mod span), so every run of `span` consecutive
/// walks holds each length once. A query's cost grows with its length;
/// stratifying removes the length draw from the seed-to-seed spread while
/// the set stays uniform over [min_length, max_length].
std::vector<Trajectory> StratifiedWalks(size_t count, size_t min_length,
                                        size_t max_length, uint64_t seed,
                                        bool normalize) {
  const size_t span = max_length - min_length + 1;
  std::vector<Trajectory> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t length = min_length + (i * 97) % span;
    const TrajectoryDataset one =
        Walks(1, length, length, SubSeed(seed, i), normalize);
    out.push_back(one[0]);
  }
  return out;
}

// walk_knn: interactive single-query k-NN over the paper's 5.2 random-walk
// set. Every query is a fresh walk, so nothing repeats.
Workload MakeWalkKnn(uint64_t seed, double scale) {
  Workload w;
  w.db = Walks(Scaled(10000, scale, 100), 30, 256, SubSeed(seed, 1), true);
  w.queries = StratifiedWalks(2048, 30, 256, SubSeed(seed, 2), true);
  for (uint32_t i = 0; i < w.queries.size(); ++i) w.ops.push_back({i});
  w.warmup_ops = 8;
  return w;
}

// short_stream: a concurrent k-NN stream over short un-normalized walks.
// Half the ops repeat one of the kHotQueries walks of the current hot set,
// the other half are unique. The hot set drifts: every kHotDrift ops its
// oldest walk retires and a fresh one joins, so each hot walk recurs about
// eight times while a run samples many more than kHotQueries of them —
// which keeps the seed-to-seed spread down, as a fixed set of 32 walks
// would make every run's cost hinge on those 32.
Workload MakeShortStream(uint64_t seed, double scale) {
  constexpr size_t kOps = 8192;
  constexpr size_t kHotDrift = 16;
  Workload w;
  w.client = Client::kSession;
  w.db = Walks(Scaled(50000, scale, 500), 20, 60, SubSeed(seed, 1), false);
  const size_t hot_count = kHotQueries + kOps / kHotDrift;
  w.queries = StratifiedWalks(hot_count, 20, 60, SubSeed(seed, 2), false);
  const std::vector<Trajectory> unique =
      StratifiedWalks(kOps, 20, 60, SubSeed(seed, 3), false);
  w.queries.insert(w.queries.end(), unique.begin(), unique.end());
  Rng rng(SubSeed(seed, 4));
  size_t next_unique = 0;
  for (size_t i = 0; i < kOps; ++i) {
    size_t query;
    if (rng.NextDouble() < 0.5) {
      query = i / kHotDrift + static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(kHotQueries) - 1));
    } else {
      query = hot_count + next_unique++;
    }
    w.ops.push_back({static_cast<uint32_t>(query)});
  }
  w.warmup_ops = 64;
  return w;
}

// asl_range: range-heavy search of clustered gestures. The queries are
// held-out instances of the database's classes, visited round-robin over
// the classes; a seeded shuffle makes exactly a fifth of them k-NN ops and
// the rest range ops. Nothing on this path caches, so a pass that wraps
// around costs what the first pass did.
Workload MakeAslRange(uint64_t seed, double scale) {
  constexpr size_t kPerClass = 50;
  constexpr size_t kHeldOut = 2;
  const size_t classes = Scaled(200, scale, 2);
  TrajectoryDataset all =
      GenAslLike(classes, kPerClass + kHeldOut, SubSeed(seed, 1));
  all.NormalizeAll();
  Workload w;
  for (size_t c = 0; c < classes; ++c) {
    for (size_t i = 0; i < kPerClass; ++i) {
      w.db.Add(all[c * (kPerClass + kHeldOut) + i]);
    }
  }
  for (size_t i = 0; i < kHeldOut; ++i) {
    for (size_t c = 0; c < classes; ++c) {
      w.queries.push_back(all[c * (kPerClass + kHeldOut) + kPerClass + i]);
    }
  }
  std::vector<uint8_t> range(w.queries.size(), 1);
  std::fill(range.begin(), range.begin() + range.size() / 5, 0);
  Rng rng(SubSeed(seed, 2));
  for (size_t i = range.size(); i > 1; --i) {
    const auto j = static_cast<size_t>(rng.UniformInt(0, i - 1));
    std::swap(range[i - 1], range[j]);
  }
  for (uint32_t q = 0; q < w.queries.size(); ++q) {
    Op op;
    op.query = q;
    op.range = range[q] != 0;
    op.radius = static_cast<int>(
        std::floor(0.3 * static_cast<double>(w.queries[q].size())));
    w.ops.push_back(op);
  }
  w.warmup_ops = 16;
  return w;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, double scale) {
  if (name == "walk_knn") return MakeWalkKnn(seed, scale);
  if (name == "short_stream") return MakeShortStream(seed, scale);
  if (name == "asl_range") return MakeAslRange(seed, scale);
  throw std::invalid_argument("unknown workload: " + name);
}

/// The engine and the searcher handle built from it. The handle and the
/// pointer borrow the engine's cached searcher, which lives as long as
/// the engine.
struct Searcher {
  std::unique_ptr<QueryEngine> engine;
  NamedSearcher named;
  const CombinedKnnSearcher* combined = nullptr;
};

Searcher BuildSearcher(const TrajectoryDataset& db, ThreadPool* pool,
                       unsigned intra_query_workers) {
  Searcher s;
  s.engine = std::make_unique<QueryEngine>(db, kEpsilon);
  CombinedOptions options;
  options.max_triangle = kMaxTriangle;
  KnnOptions knn;
  knn.intra_query_workers = intra_query_workers;
  knn.pool = pool;
  s.named = s.engine->MakeCombined(options, knn);
  s.combined = &s.engine->Combined(options);
  return s;
}

KnnResult Answer(const Searcher& s, const Workload& w, const Op& op) {
  const Trajectory& query = w.queries[op.query];
  return op.range ? s.combined->Range(query, op.radius)
                  : s.named.search(query, kK);
}

std::vector<double> Distances(const KnnResult& r) {
  std::vector<double> d;
  d.reserve(r.neighbors.size());
  for (const Neighbor& n : r.neighbors) d.push_back(n.distance);
  std::sort(d.begin(), d.end());
  return d;
}

struct OpRecord {
  uint32_t op = 0;  ///< index into Workload::ops
  bool timed = false;
  bool threw = false;
  double latency = 0.0;  ///< call (or Submit) until the answer returned
  double done = 0.0;     ///< completion, seconds since the timed phase began
  SearchStats stats;
  std::vector<double> distances;
};

void Fill(OpRecord* rec, const KnnResult& r) {
  rec->stats = r.stats;
  rec->distances = Distances(r);
}

/// What the timed phase left behind, besides the op records.
struct PhaseResult {
  double wall = 0.0;
  ThreadPoolStats pool;
  SchedulerStats sched;
  FeatureCache::Stats features;
  FusedPlanCache::Stats plans;
};

/// Whether the timed phase is in a traced segment at time t.
bool TracedAt(const RunConfig& config, double t) {
  if (!config.trace) return false;
  const double segment = config.seconds / kTraceSegments;
  return static_cast<int64_t>(t / segment) % 2 == 1;
}

bool KeepGoing(const RunConfig& config, double t, size_t timed_ops) {
  return t < config.seconds || timed_ops < kMinTimedOps;
}

/// walk_knn and asl_range: one client, each op a direct call that the
/// client waits for. k-NN ops fan out over the pool inside the searcher.
PhaseResult RunDirect(const RunConfig& config, const Workload& w,
                      const Searcher& s, ThreadPool* pool, SpanLog* log,
                      std::vector<OpRecord>* records) {
  auto run_op = [&](size_t seq, bool timed, double t_begin, bool traced) {
    OpRecord rec;
    rec.op = static_cast<uint32_t>(seq % w.ops.size());
    rec.timed = timed;
    const Op& op = w.ops[rec.op];
    const double c0 = log->Now();
    double c1 = c0;
    try {
      const KnnResult r = Answer(s, w, op);
      c1 = log->Now();
      Fill(&rec, r);
    } catch (const std::exception& e) {
      c1 = log->Now();
      rec.threw = true;
      std::fprintf(stderr, "op %zu threw: %s\n", seq, e.what());
    }
    rec.latency = c1 - c0;
    rec.done = c1 - t_begin;
    const SearchStats stats = rec.stats;
    records->push_back(std::move(rec));
    if (!traced) return;
    const int root = log->Add("op", c0, log->Now(), -1, seq);
    // A Range call reports no filter/refine split (README caveat 3), so
    // it stays one query.engine span with no attributed children.
    const int call = log->Add("query.engine", c0, c1, root, seq);
    if (!op.range) {
      const double filter_end = std::min(c1, c0 + stats.filter_seconds);
      log->Add("pruning", c0, filter_end, call, seq, true);
      log->Add("distance", filter_end,
               std::min(c1, filter_end + stats.refine_seconds), call, seq,
               true);
    }
  };

  for (size_t i = 0; i < w.warmup_ops; ++i) run_op(i, false, 0.0, false);

  PhaseResult out;
  const ThreadPoolStats pool_before = pool->Stats();
  const double t_begin = log->Now();
  size_t timed = 0;
  for (size_t seq = w.warmup_ops;; ++seq, ++timed) {
    const double t = log->Now() - t_begin;
    if (!KeepGoing(config, t, timed)) break;
    run_op(seq, true, t_begin, TracedAt(config, t));
  }
  out.wall = log->Now() - t_begin;
  out.pool = pool->Stats().Since(pool_before);
  return out;
}

/// short_stream: one client keeping kOutstanding tickets open on a
/// QuerySession; it collects answers in ticket order and submits the next
/// op as each answer arrives.
PhaseResult RunSession(const RunConfig& config, const Workload& w,
                       const Searcher& s, ThreadPool* pool, SpanLog* log,
                       std::vector<OpRecord>* records) {
  FeatureCache features;
  FusedPlanCache plans;
  QuerySession::Options options;
  options.k = kK;
  options.pool = pool;
  options.feature_cache = &features;
  options.plan_cache = &plans;
  QuerySession session(s.named, options);

  struct Open {
    size_t seq = 0;
    QuerySession::Ticket ticket = 0;
    bool timed = false;
    bool traced = false;
    bool threw = false;
    double submit_start = 0.0;
    double submit_end = 0.0;
  };
  std::deque<Open> open;
  double t_begin = 0.0;

  auto submit = [&](size_t seq, bool timed, bool traced) {
    Open o;
    o.seq = seq;
    o.timed = timed;
    o.traced = traced;
    o.submit_start = log->Now();
    try {
      o.ticket = session.Submit(w.queries[w.ops[seq % w.ops.size()].query]);
    } catch (const std::exception& e) {
      o.threw = true;
      std::fprintf(stderr, "submit %zu threw: %s\n", seq, e.what());
    }
    o.submit_end = log->Now();
    open.push_back(o);
  };
  auto complete = [&]() {
    const Open o = open.front();
    open.pop_front();
    OpRecord rec;
    rec.op = static_cast<uint32_t>(o.seq % w.ops.size());
    rec.timed = o.timed;
    rec.threw = o.threw;
    const double r0 = log->Now();
    double r1 = r0;
    if (!o.threw) {
      try {
        const KnnResult& r = session.Result(o.ticket);
        r1 = log->Now();
        Fill(&rec, r);
      } catch (const std::exception& e) {
        r1 = log->Now();
        rec.threw = true;
        std::fprintf(stderr, "result %zu threw: %s\n", o.seq, e.what());
      }
    }
    rec.latency = r1 - o.submit_start;
    rec.done = r1 - t_begin;
    records->push_back(std::move(rec));
    if (!o.traced) return;
    const int root = log->Add("op", o.submit_start, log->Now(), -1, o.seq);
    log->Add("query.scheduler", o.submit_start, o.submit_end, root, o.seq);
    log->Add("query.scheduler", r0, r1, root, o.seq);
  };

  size_t seq = 0;
  for (; seq < w.warmup_ops; ++seq) {
    if (open.size() == kOutstanding) complete();
    submit(seq, false, false);
  }
  while (!open.empty()) complete();

  PhaseResult out;
  const ThreadPoolStats pool_before = pool->Stats();
  const SchedulerStats sched_before = session.stats();
  const FeatureCache::Stats features_before = features.stats();
  const FusedPlanCache::Stats plans_before = plans.stats();
  t_begin = log->Now();
  size_t submitted = 0;
  while (true) {
    const double t = log->Now() - t_begin;
    if (!KeepGoing(config, t, submitted)) break;
    if (open.size() == kOutstanding) complete();
    submit(seq++, true, TracedAt(config, log->Now() - t_begin));
    ++submitted;
  }
  while (!open.empty()) complete();
  out.wall = log->Now() - t_begin;
  out.pool = pool->Stats().Since(pool_before);

  const SchedulerStats& after = session.stats();
  out.sched.queries = after.queries - sched_before.queries;
  out.sched.widened_queries =
      after.widened_queries - sched_before.widened_queries;
  out.sched.fused_groups = after.fused_groups - sched_before.fused_groups;
  out.sched.fused_queries = after.fused_queries - sched_before.fused_queries;
  out.sched.shared_fraction_sum =
      after.shared_fraction_sum - sched_before.shared_fraction_sum;
  const FeatureCache::Stats f = features.stats();
  out.features.hits = f.hits - features_before.hits;
  out.features.misses = f.misses - features_before.misses;
  out.features.evictions = f.evictions - features_before.evictions;
  const FusedPlanCache::Stats p = plans.stats();
  out.plans.hits = p.hits - plans_before.hits;
  out.plans.misses = p.misses - plans_before.misses;
  out.plans.collisions = p.collisions - plans_before.collisions;
  return out;
}

/// Checks every recorded answer against the sequential scan, computed
/// after the timed phase on every core (`pool` is ThreadPool::Global(),
/// idle by then); each distinct op is scanned once. Both scans run the
/// full, unbounded DP (EdrDistanceWith), never the bounded kernel the
/// searchers refine with, so a fault in that kernel cannot hide by
/// appearing in the reference too. Returns the number of failed ops.
uint64_t CheckAnswers(const Workload& w, const std::vector<OpRecord>& records,
                      ThreadPool* pool) {
  std::map<uint32_t, size_t> slot;  // op index -> reference slot
  std::vector<uint32_t> ops;
  for (const OpRecord& rec : records) {
    if (slot.emplace(rec.op, ops.size()).second) ops.push_back(rec.op);
  }
  std::vector<std::vector<double>> expected(ops.size());
  std::vector<uint8_t> scanned(ops.size(), 0);
  pool->ParallelFor(ops.size(), [&](size_t i) {
    const Op& op = w.ops[ops[i]];
    const Trajectory& q = w.queries[op.query];
    try {
      expected[i] = Distances(
          op.range ? SequentialScanRange(w.db, q, op.radius, kEpsilon)
                   : SequentialScanKnn(w.db, q, kK, kEpsilon));
      scanned[i] = 1;
    } catch (const std::exception&) {
    }
  });
  uint64_t failed = 0;
  for (const OpRecord& rec : records) {
    const size_t i = slot.at(rec.op);
    if (rec.threw || scanned[i] == 0 || rec.distances != expected[i]) {
      ++failed;
    }
  }
  return failed;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Layer numbers the traced run measures by calling the layers directly,
/// outside the timed phase.
struct Probes {
  double matrix_s = 0.0;
  double histogram_s = 0.0;
  double qgram_s = 0.0;
  double sweep_ms = 0.0;
  double kernel_gcells_s = 0.0;
};

Probes RunProbes(const Workload& w, SpanLog* log) {
  Probes out;
  uint64_t root_id = kFirstRootId + kSetupRepeats;
  std::vector<double> matrix, histogram, qgram;
  std::unique_ptr<HistogramTable> table;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = log->Now();
    { PairwiseEdrMatrix::BuildParallel(w.db, kEpsilon, kMaxTriangle); }
    const double t1 = log->Now();
    table.reset();
    table = std::make_unique<HistogramTable>(
        w.db, kEpsilon, HistogramTable::Kind::k2D, 1,
        HistogramLayout::kAdaptive);
    const double t2 = log->Now();
    { QgramMeansTable means(w.db, 1, 2); }
    const double t3 = log->Now();
    const int root = log->Add("setup", t0, t3, -1, root_id);
    log->Add("setup.matrix", t0, t1, root, root_id);
    log->Add("setup.histogram", t1, t2, root, root_id);
    log->Add("setup.qgram", t2, t3, root, root_id);
    ++root_id;
    matrix.push_back(t1 - t0);
    histogram.push_back(t2 - t1);
    qgram.push_back(t3 - t2);
  }
  out.matrix_s = Median(matrix);
  out.histogram_s = Median(histogram);
  out.qgram_s = Median(qgram);

  // A fixed sample: the queries of the first timed ops.
  std::vector<const Trajectory*> sample;
  for (size_t i = 0; i < 32; ++i) {
    const Op& op = w.ops[(w.warmup_ops + i) % w.ops.size()];
    sample.push_back(&w.queries[op.query]);
  }

  std::vector<double> sweep;
  std::vector<int> bounds;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = log->Now();
    std::vector<std::pair<double, double>> calls;
    for (const Trajectory* q : sample) {
      const double c0 = log->Now();
      const HistogramTable::QueryHistogram qh = table->MakeQueryHistogram(*q);
      table->FastLowerBoundSweep(qh, &bounds);
      calls.emplace_back(c0, log->Now());
    }
    const double t1 = log->Now();
    const int root = log->Add("probe", t0, t1, -1, root_id);
    for (const auto& [c0, c1] : calls) {
      log->Add("pruning", c0, c1, root, root_id);
    }
    ++root_id;
    sweep.push_back((t1 - t0) / static_cast<double>(sample.size()));
  }
  out.sweep_ms = 1e3 * Median(sweep);

  // Single-thread EDR with the refine kernel (EdrDistanceWith the default
  // kernel, unbounded) on (sample query, evenly spaced database
  // trajectory) pairs.
  constexpr size_t kSubjects = 32;
  double cells = 0.0;
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = 0; j < kSubjects; ++j) {
      cells += static_cast<double>(sample[i]->size()) *
               static_cast<double>(w.db[j * w.db.size() / kSubjects].size());
    }
  }
  std::vector<double> kernel;
  long sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = log->Now();
    for (size_t i = 0; i < 16; ++i) {
      for (size_t j = 0; j < kSubjects; ++j) {
        sink += EdrDistanceWith(DefaultEdrKernel(), ThreadLocalEdrScratch(),
                                *sample[i],
                                w.db[j * w.db.size() / kSubjects], kEpsilon);
      }
    }
    const double t1 = log->Now();
    const int root = log->Add("probe", t0, t1, -1, root_id);
    log->Add("distance", t0, t1, root, root_id);
    ++root_id;
    kernel.push_back(t1 - t0);
  }
  if (sink < 0) std::fprintf(stderr, "unreachable: %ld\n", sink);
  out.kernel_gcells_s = cells / Median(kernel) / 1e9;
  return out;
}

void Push(std::vector<Metric>* out, const std::string& name, double value,
          const std::string& unit) {
  out->push_back({name, value, unit});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"walk_knn", "short_stream",
                                                 "asl_range"};
  return names;
}

RunReport Run(const RunConfig& config) {
  RunReport report;
  SpanLog& log = report.spans;
  const Workload w = MakeWorkload(config.workload, config.seed, config.scale);
  const double generated = log.Now();
  ThreadPool pool(kPoolWorkers);
  const unsigned intra =
      w.client == Client::kDirect ? kQueryThreads : 1;

  // setup_s: dataset handed to the engine -> searcher built and one op
  // answered. The set-up builds run on ThreadPool::Global() inside the
  // engine; nothing else runs meanwhile.
  Searcher searcher;
  std::vector<double> setups;
  const int repeats = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    searcher = Searcher();  // free the previous engine before the next build
    const double t0 = log.Now();
    searcher = BuildSearcher(w.db, &pool, intra);
    const double t1 = log.Now();
    Answer(searcher, w, w.ops[0]);
    const double t2 = log.Now();
    setups.push_back(t2 - t0);
    if (config.trace) {
      const uint64_t id = kFirstRootId + static_cast<uint64_t>(r);
      const int root = log.Add("setup", t0, t2, -1, id);
      log.Add("query.engine", t0, t1, root, id);
      log.Add("query.engine", t1, t2, root, id);
    }
  }

  std::vector<OpRecord> records;
  const PhaseResult phase =
      w.client == Client::kDirect
          ? RunDirect(config, w, searcher, &pool, &log, &records)
          : RunSession(config, w, searcher, &pool, &log, &records);

  const double check_begin = log.Now();
  report.attempted = records.size();
  report.failed = CheckAnswers(w, records, &ThreadPool::Global());
  const double check_s = log.Now() - check_begin;

  std::vector<double> latencies, knn_lat, range_lat, queue_wait;
  double filter_s = 0.0, refine_s = 0.0, knn_latency_s = 0.0;
  size_t timed = 0, knn_ops = 0;
  double power_sum = 0.0;
  StageCounters stages;
  uint64_t db_total = 0, results = 0;
  for (const OpRecord& rec : records) {
    if (!rec.timed) continue;
    ++timed;
    latencies.push_back(rec.latency);
    const bool range = w.ops[rec.op].range;
    (range ? range_lat : knn_lat).push_back(rec.latency);
    queue_wait.push_back(rec.latency - rec.stats.elapsed_seconds);
    if (!range) {
      ++knn_ops;
      filter_s += rec.stats.filter_seconds;
      refine_s += rec.stats.refine_seconds;
      knn_latency_s += rec.latency;
    }
    power_sum += 1.0 - Ratio(static_cast<double>(rec.stats.stages.dp_invoked),
                             static_cast<double>(rec.stats.db_size));
    stages.Add(rec.stats.stages);
    db_total += rec.stats.db_size;
    results += rec.distances.size();
  }

  std::vector<Metric>& m = report.metrics;
  if (!config.trace) {
    Push(&m, "setup_s", Median(setups), "s");
    Push(&m, "qps", static_cast<double>(timed) / phase.wall, "1/s");
    Push(&m, "p50_ms", 1e3 * Percentile(latencies, 0.50), "ms");
    Push(&m, "p95_ms", 1e3 * Percentile(latencies, 0.95), "ms");
    Push(&m, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const Probes probes = RunProbes(w, &log);
    const double ops = static_cast<double>(timed);
    const double dps = static_cast<double>(stages.dp_invoked);
    const double db = static_cast<double>(db_total);
    Push(&m, "setup.matrix_s", probes.matrix_s, "s");
    Push(&m, "setup.histogram_s", probes.histogram_s, "s");
    Push(&m, "setup.qgram_s", probes.qgram_s, "s");
    Push(&m, "pruning.filter_ms_per_op",
         1e3 * Ratio(filter_s, static_cast<double>(knn_ops)), "ms");
    Push(&m, "pruning.sweep_ms_per_op", probes.sweep_ms, "ms");
    Push(&m, "pruning.power", Ratio(power_sum, ops), "ratio");
    Push(&m, "pruning.not_visited_frac",
         Ratio(static_cast<double>(stages.not_visited), db), "ratio");
    Push(&m, "pruning.histogram_pruned_frac",
         Ratio(static_cast<double>(stages.histogram_pruned), db), "ratio");
    Push(&m, "pruning.qgram_pruned_frac",
         Ratio(static_cast<double>(stages.qgram_pruned), db), "ratio");
    Push(&m, "pruning.triangle_pruned_frac",
         Ratio(static_cast<double>(stages.triangle_pruned), db), "ratio");
    Push(&m, "distance.refine_ms_per_op",
         1e3 * Ratio(refine_s, static_cast<double>(knn_ops)), "ms");
    Push(&m, "distance.dp_per_op", Ratio(dps, ops), "count");
    Push(&m, "distance.cells_per_op",
         Ratio(static_cast<double>(stages.dp_cells), ops), "count");
    Push(&m, "distance.abandoned_frac",
         Ratio(static_cast<double>(stages.dp_early_abandoned), dps), "ratio");
    Push(&m, "distance.refine_yield",
         Ratio(static_cast<double>(results), dps), "ratio");
    Push(&m, "distance.kernel_gcells_s", probes.kernel_gcells_s, "Gcell/s");
    Push(&m, "pool.busy_frac",
         Ratio(phase.pool.busy_seconds, phase.wall * kQueryThreads), "ratio");
    Push(&m, "pool.steals_per_item",
         Ratio(static_cast<double>(phase.pool.steals),
               static_cast<double>(phase.pool.items)),
         "ratio");
    Push(&m, "pool.jobs_per_op",
         Ratio(static_cast<double>(phase.pool.jobs), ops), "count");
    const double sched_queries = static_cast<double>(phase.sched.queries);
    const double groups = static_cast<double>(phase.sched.fused_groups);
    Push(&m, "sched.fused_frac",
         Ratio(static_cast<double>(phase.sched.fused_queries), sched_queries),
         "ratio");
    Push(&m, "sched.group_size_mean",
         Ratio(static_cast<double>(phase.sched.fused_queries), groups),
         "count");
    Push(&m, "sched.shared_bin_frac",
         Ratio(phase.sched.shared_fraction_sum, groups), "ratio");
    Push(&m, "sched.widened_frac",
         Ratio(static_cast<double>(phase.sched.widened_queries),
               sched_queries),
         "ratio");
    Push(&m, "sched.queue_wait_ms_p50", 1e3 * Median(queue_wait), "ms");
    Push(&m, "feature_cache.hit_rate",
         Ratio(static_cast<double>(phase.features.hits),
               static_cast<double>(phase.features.hits +
                                   phase.features.misses)),
         "ratio");
    Push(&m, "feature_cache.evictions",
         static_cast<double>(phase.features.evictions), "count");
    Push(&m, "plan_cache.hit_rate",
         Ratio(static_cast<double>(phase.plans.hits),
               static_cast<double>(phase.plans.hits + phase.plans.misses)),
         "ratio");
    Push(&m, "plan_cache.collisions",
         static_cast<double>(phase.plans.collisions), "count");

    // trace.overhead_frac: qps of the traced segments against the
    // untraced ones, each the median over its segments.
    const double segment = config.seconds / kTraceSegments;
    std::vector<double> seg_ops(kTraceSegments, 0.0);
    for (const OpRecord& rec : records) {
      const auto k = static_cast<int64_t>(rec.done / segment);
      if (rec.timed && k >= 0 && k < kTraceSegments) seg_ops[k] += 1.0;
    }
    std::vector<double> traced_qps, untraced_qps;
    for (int k = 0; k < kTraceSegments; ++k) {
      (k % 2 == 1 ? traced_qps : untraced_qps).push_back(seg_ops[k] / segment);
    }
    Push(&m, "trace.overhead_frac",
         1.0 - Ratio(Median(traced_qps), Median(untraced_qps)), "ratio");
    Push(&m, "trace.accounted_frac",
         Ratio(filter_s + refine_s, knn_latency_s), "ratio");
    const std::map<std::string, double> self = log.SelfSeconds("op");
    size_t traced_ops = 0;
    for (const Span& s : log.spans()) traced_ops += s.name == "op" ? 1 : 0;
    for (const char* layer : {"op", "query.engine", "query.scheduler",
                              "pruning", "distance"}) {
      const auto it = self.find(layer);
      Push(&m, std::string("self_ms_per_op.") + layer,
           1e3 * Ratio(it == self.end() ? 0.0 : it->second,
                       static_cast<double>(traced_ops)),
           "ms");
    }
    report.span_error = log.Check();
  }

  std::vector<Metric>& d = report.details;
  Push(&d, "fail_frac",
       Ratio(static_cast<double>(report.failed),
             static_cast<double>(report.attempted)),
       "ratio");
  Push(&d, "timed_ops", static_cast<double>(timed), "count");
  Push(&d, "knn_ops", static_cast<double>(knn_lat.size()), "count");
  Push(&d, "range_ops", static_cast<double>(range_lat.size()), "count");
  Push(&d, "knn_p50_ms", 1e3 * Percentile(knn_lat, 0.50), "ms");
  Push(&d, "knn_p95_ms", 1e3 * Percentile(knn_lat, 0.95), "ms");
  Push(&d, "range_p50_ms", 1e3 * Percentile(range_lat, 0.50), "ms");
  Push(&d, "range_p95_ms", 1e3 * Percentile(range_lat, 0.95), "ms");
  Push(&d, "generate_s", generated, "s");
  Push(&d, "check_s", check_s, "s");
  Push(&d, "run_s", log.Now(), "s");
  return report;
}

}  // namespace edr::bench_e2e
