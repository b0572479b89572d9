#include "search/similarity_search.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "filters/filter_index.h"
#include "ted/bounded_ted.h"
#include "util/flight_recorder.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_context.h"
#include "util/safe_math.h"
#include "util/stopwatch.h"
#include "util/structured_log.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace treesim {
namespace {

/// Shared tail of every query-log record: the candidate funnel and the
/// stage/total timings from QueryStats, plus the slow marker. The caller
/// guards with StructuredLog::ShouldLog(), so none of this runs while the
/// sink is disabled (and under TREESIM_METRICS=OFF the guarded block is
/// dead code).
void AppendQueryStatsFields(const QueryStats& stats, int64_t total_micros,
                            LogRecord& rec) {
  rec.Int("database_size", stats.database_size)
      .Int("candidates", stats.candidates)
      .Int("refined", stats.edit_distance_calls)
      .Int("results", stats.results)
      .Int("filter_micros",
           static_cast<int64_t>(stats.filter_seconds * 1e6))
      .Int("refine_micros",
           static_cast<int64_t>(stats.refine_seconds * 1e6))
      .Int("total_micros", total_micros)
      .Bool("slow", StructuredLog::Global().IsSlow(total_micros));
}

/// Current value of the process-wide bounded-TED cell counter
/// (ted/bounded_ted.cc), read before/after a query for the flight
/// recorder's per-query delta. The delta is approximate when queries
/// overlap in one process. Constant 0 under TREESIM_METRICS=OFF.
int64_t BoundedCellsCounterValue() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("ted.bounded_cells_computed");
  return counter.value();
}

/// Appends one completed query to the always-on flight recorder — the
/// crash-dumpable sibling of the optional structured-log record.
void RecordFlight(const char* op, int64_t query_id, int64_t param,
                  const QueryStats& stats, int64_t total_micros,
                  int64_t bounded_cells_delta) {
  if constexpr (kMetricsEnabled) {
    FlightRecord rec;
    rec.query_id = query_id;
    rec.ts_micros = UnixMicros();
    rec.op = op;
    rec.param = param;
    rec.database_size = stats.database_size;
    rec.candidates = stats.candidates;
    rec.refined = stats.edit_distance_calls;
    rec.results = stats.results;
    rec.filter_micros = static_cast<int64_t>(stats.filter_seconds * 1e6);
    rec.refine_micros = static_cast<int64_t>(stats.refine_seconds * 1e6);
    rec.total_micros = total_micros;
    rec.bounded_cells_delta = bounded_cells_delta;
    rec.slow = StructuredLog::Global().IsSlow(total_micros);
    FlightRecorder::Global().Record(rec);
  }
}

}  // namespace

SimilaritySearch::SimilaritySearch(const TreeDatabase* db,
                                   std::unique_ptr<FilterIndex> filter)
    : db_(db), filter_(std::move(filter)) {
  TREESIM_CHECK(db_ != nullptr);
  if (filter_ != nullptr) filter_->Build(db_->trees());
}

std::string SimilaritySearch::filter_name() const {
  return filter_ == nullptr ? "Sequential" : filter_->name();
}

RangeResult SimilaritySearch::Range(const Tree& query, int tau,
                                    ThreadPool* pool) {
  // The query's identity for every span, log record, exemplar, and flight
  // record below — opened before the top span so it carries the id too,
  // and propagated into pool workers by ThreadPool::Schedule.
  const ScopedQueryContext qctx("range");
  const int64_t bounded_cells_before = BoundedCellsCounterValue();
  TREESIM_TRACE_SPAN("search.range");
  TREESIM_COUNTER_INC("search.range.queries");
  RangeResult result;
  result.stats.database_size = db_->size();

  // Filtering step. The context outlives the branch so the debug-mode
  // soundness check below can re-probe the filter per refined candidate.
  std::vector<int> candidates;
  std::unique_ptr<FilterQueryContext> ctx;
  Stopwatch filter_timer;
  {
    TREESIM_TRACE_SPAN("search.range.filter");
    if (filter_ == nullptr) {
      candidates.resize(static_cast<size_t>(db_->size()));
      for (int id = 0; id < db_->size(); ++id) {
        candidates[static_cast<size_t>(id)] = id;
      }
    } else {
      ctx = filter_->PrepareQuery(query);
      candidates = filter_->RangeCandidates(*ctx, tau);
    }
  }
  TREESIM_HISTOGRAM_RECORD("search.range.filter_micros",
                           LatencyBucketsMicros(),
                           filter_timer.ElapsedMicros());
  TREESIM_COUNTER_ADD("search.range.candidates",
                      static_cast<int64_t>(candidates.size()));
  TREESIM_HISTOGRAM_RECORD("search.range.candidates_per_query",
                           CountBuckets(),
                           static_cast<int64_t>(candidates.size()));
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();
  result.stats.candidates = static_cast<int64_t>(candidates.size());

  // Refinement step: verify every candidate with the threshold-bounded
  // distance — exact whenever it is <= tau, and a definitive tau + 1
  // otherwise, which the match test below rejects exactly like the full
  // distance would. Each candidate's distance lands in its own slot, so
  // the parallel fan-out (TedTree views are immutable, the kernel is pure)
  // yields exactly the sequential matches and stats for any pool size.
  Stopwatch refine_timer;
  const TedTree query_view = TedTree::FromTree(query);
  std::vector<int> distances(candidates.size(), 0);
  {
    TREESIM_TRACE_SPAN("search.range.refine");
    ParallelFor(pool, static_cast<int64_t>(candidates.size()), [&](int64_t c) {
      const int id = candidates[static_cast<size_t>(c)];
      const int d = BoundedTreeEditDistance(query_view, db_->ted_view(id), tau);
#ifndef NDEBUG
      // Theorem 3.2/3.3 as a machine-checked invariant: the filter's lower
      // bound (ceil(BDist / [4(q-1)+1]) for the branch filters) must never
      // exceed the exact edit distance on any refined candidate. Valid with
      // the bounded verifier too: refined candidates have bound <= tau, and
      // d is either exact or the clamped tau + 1 > bound.
      if (ctx != nullptr) {
        TREESIM_DCHECK_LE(filter_->LowerBound(*ctx, id),
                          static_cast<double>(d))
            << "unsound lower bound from filter " << filter_->name()
            << " on tree " << id;
      }
#endif
      distances[static_cast<size_t>(c)] = d;
    });
  }
  result.stats.edit_distance_calls =
      static_cast<int64_t>(candidates.size());
  TREESIM_COUNTER_ADD("search.range.refined",
                      static_cast<int64_t>(candidates.size()));
  size_t within_tau = 0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (distances[c] <= tau) ++within_tau;
  }
  result.matches.reserve(within_tau);
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (distances[c] <= tau) {
      result.matches.emplace_back(candidates[c], distances[c]);
    }
  }
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  TREESIM_HISTOGRAM_RECORD("search.range.refine_micros",
                           LatencyBucketsMicros(),
                           refine_timer.ElapsedMicros());
  TREESIM_COUNTER_ADD("search.range.results",
                      static_cast<int64_t>(result.matches.size()));

  std::sort(result.matches.begin(), result.matches.end(),
            [](const std::pair<int, int>& a, const std::pair<int, int>& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  result.stats.results = static_cast<int64_t>(result.matches.size());

  StructuredLog& qlog = StructuredLog::Global();
  const int64_t total_micros =
      static_cast<int64_t>(result.stats.TotalSeconds() * 1e6);
  if (qlog.ShouldLog(total_micros)) {
    LogRecord rec;
    rec.Int("ts_micros", UnixMicros())
        .Str("event", "range")
        .Int("query_id", qctx.query_id())
        .Str("filter", filter_name())
        .Int("tau", tau);
    AppendQueryStatsFields(result.stats, total_micros, rec);
    qlog.Write(rec);
  }
  TREESIM_WINDOW_RECORD("search.range.latency_window", total_micros);
  RecordFlight("range", qctx.query_id(), tau, result.stats, total_micros,
               BoundedCellsCounterValue() - bounded_cells_before);
  return result;
}

KnnResult SimilaritySearch::Knn(const Tree& query, int k, ThreadPool* pool) {
  TREESIM_CHECK_GT(k, 0);
  const ScopedQueryContext qctx("knn");
  const int64_t bounded_cells_before = BoundedCellsCounterValue();
  TREESIM_TRACE_SPAN("search.knn");
  TREESIM_COUNTER_INC("search.knn.queries");
  KnnResult result;
  result.stats.database_size = db_->size();
  if (db_->size() == 0) return result;

  // Step 1: lower bound for every database tree (Algorithm 2, lines 1-3).
  // PrepareQuery stays on the calling thread (it may extend shared
  // dictionaries); the per-tree bounds are pure reads and fan out.
  Stopwatch filter_timer;
  std::vector<double> bounds(static_cast<size_t>(db_->size()), 0.0);
  std::vector<int> order(static_cast<size_t>(db_->size()));
  for (int id = 0; id < db_->size(); ++id) {
    order[static_cast<size_t>(id)] = id;
  }
  if (filter_ != nullptr) {
    TREESIM_TRACE_SPAN("search.knn.filter");
    const std::unique_ptr<FilterQueryContext> ctx = filter_->PrepareQuery(query);
    ParallelFor(pool, db_->size(), [&](int64_t id) {
      bounds[static_cast<size_t>(id)] =
          filter_->LowerBound(*ctx, static_cast<int>(id));
    });
    TREESIM_COUNTER_ADD("search.knn.bounds_computed",
                        static_cast<int64_t>(db_->size()));
    // Step 2: ascending by optimistic bound (line 4), so the most promising
    // trees are refined first and the break triggers as early as possible.
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double ba = bounds[static_cast<size_t>(a)];
      const double bb = bounds[static_cast<size_t>(b)];
      if (ba != bb) return ba < bb;
      return a < b;
    });
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();
  TREESIM_HISTOGRAM_RECORD("search.knn.filter_micros",
                           LatencyBucketsMicros(),
                           filter_timer.ElapsedMicros());

  // Step 3: pruning sweep with a max-heap of the k best exact distances
  // (lines 5-15). Heap entries are (distance, id); top() is the current
  // k-th best under the deterministic (distance, id) order.
  Stopwatch refine_timer;
  TREESIM_TRACE_SPAN("search.knn.refine");
  const TedTree query_view = TedTree::FromTree(query);
  std::priority_queue<std::pair<int, int>> heap;
  int64_t calls = 0;
  // Sum over refined candidates of (exact distance - lower bound), the
  // per-query pruning-power figure reported in the query log.
  int64_t bound_gap_sum = 0;
  if (pool == nullptr || pool->size() <= 1) {
    for (const int id : order) {
      if (static_cast<int>(heap.size()) == k &&
          bounds[static_cast<size_t>(id)] >
              static_cast<double>(heap.top().first)) {
        break;  // every remaining bound is at least this large
      }
      // Verify against the current k-th best: a candidate farther than
      // that can never enter the heap, so the verifier may stop at
      // tau_b + 1 — which the (d, id) < top() test below rejects exactly
      // like the full distance would. While the heap is filling every
      // verification must be exact (INT_MAX delegates to the unbounded
      // kernel); once full, tau_b equals the k-th distance, so ties at
      // the k-th best are still computed exactly and the id tie-break
      // stays byte-identical to the unbounded sweep.
      const int tau_b = static_cast<int>(heap.size()) == k
                            ? heap.top().first
                            : std::numeric_limits<int>::max();
      const int d = BoundedTreeEditDistance(query_view, db_->ted_view(id),
                                            tau_b);
      ++calls;
      // Soundness of the pruning sweep: a bound above the exact distance
      // would let the early break drop true neighbors. (With the bounded
      // verifier, a clamped d is tau_b + 1 and surviving candidates have
      // bound <= tau_b, so the check still holds.)
      TREESIM_DCHECK_LE(bounds[static_cast<size_t>(id)],
                        static_cast<double>(d))
          << "unsound lower bound on tree " << id;
      // Bound tightness (Section 5's pruning-power claim): how far below
      // the verified (possibly threshold-clamped) distance the filter's
      // lower bound sat on this candidate.
      const int64_t gap =
          d - static_cast<int64_t>(bounds[static_cast<size_t>(id)]);
      TREESIM_HISTOGRAM_RECORD("search.knn.bound_gap", SmallValueBuckets(),
                               gap);
      bound_gap_sum = CheckedAdd(bound_gap_sum, gap);
      if (static_cast<int>(heap.size()) < k) {
        heap.emplace(d, id);
      } else if (std::make_pair(d, id) < heap.top()) {
        heap.pop();
        heap.emplace(d, id);
      }
    }
  } else {
    // Parallel sweep over bound-ascending blocks. Workers verify
    // candidates thread-locally and merge into the mutex-guarded heap; a
    // bounded heap keeps the k smallest (distance, id) pairs of whatever
    // set was verified, independent of insertion order, and the skip/stop
    // tests below only drop candidates whose bound STRICTLY exceeds the
    // current k-th best exact distance — which only shrinks over time, so
    // such a candidate can never re-enter the final top k. Hence
    // `neighbors` equals the sequential sweep's for any pool size; only
    // the number of verifications may differ (a block can overshoot the
    // sequential stopping point). The bounded verifier keeps this
    // determinism: its threshold is a snapshot of the k-th best, stale
    // only toward larger values, so final-top-k members are always
    // verified exactly (see the snapshot comment below).
    struct SweepState {
      Mutex mu;
      std::priority_queue<std::pair<int, int>> heap TREESIM_GUARDED_BY(mu);
      int64_t calls TREESIM_GUARDED_BY(mu) = 0;
      int64_t bound_gap_sum TREESIM_GUARDED_BY(mu) = 0;
    } sweep;
    const int64_t n = db_->size();
    const int64_t block =
        std::max<int64_t>(k, static_cast<int64_t>(8 * pool->size()));
    for (int64_t start = 0; start < n; start += block) {
      {
        MutexLock lock(sweep.mu);
        if (static_cast<int>(sweep.heap.size()) == k &&
            bounds[static_cast<size_t>(
                order[static_cast<size_t>(start)])] >
                static_cast<double>(sweep.heap.top().first)) {
          break;  // bounds ascend: every remaining block is prunable
        }
      }
      const int64_t end = std::min(start + block, n);
      pool->ParallelFor(end - start, [&](int64_t bi) {
        const int id = order[static_cast<size_t>(start + bi)];
        const double bound = bounds[static_cast<size_t>(id)];
        // Snapshot the current k-th best as the verifier threshold under
        // the same lock as the skip test. The snapshot may be stale by
        // verification time, but only on the safe side: the k-th best
        // only shrinks, so tau_b >= the final k-th distance. Hence any
        // candidate belonging to the final top k satisfies d <= tau_b and
        // is verified exactly; a clamped result (tau_b + 1) implies
        // d > tau_b >= every heap top from here on, so the insert test
        // below rejects it just as the unbounded sweep would. And a
        // not-yet-full heap at snapshot time stays not-smaller, so the
        // "insert unconditionally" branch only ever sees exact distances
        // (tau_b = INT_MAX delegates to the unbounded kernel).
        int tau_b = std::numeric_limits<int>::max();
        {
          MutexLock lock(sweep.mu);
          if (static_cast<int>(sweep.heap.size()) == k) {
            if (bound > static_cast<double>(sweep.heap.top().first)) {
              return;  // exact distance >= bound > current k-th best
            }
            tau_b = sweep.heap.top().first;
          }
        }
        const int d = BoundedTreeEditDistance(query_view, db_->ted_view(id),
                                              tau_b);
        TREESIM_DCHECK_LE(bound, static_cast<double>(d))
            << "unsound lower bound on tree " << id;
        const int64_t gap = d - static_cast<int64_t>(bound);
        TREESIM_HISTOGRAM_RECORD("search.knn.bound_gap", SmallValueBuckets(),
                                 gap);
        MutexLock lock(sweep.mu);
        ++sweep.calls;
        sweep.bound_gap_sum = CheckedAdd(sweep.bound_gap_sum, gap);
        if (static_cast<int>(sweep.heap.size()) < k) {
          sweep.heap.emplace(d, id);
        } else if (std::make_pair(d, id) < sweep.heap.top()) {
          sweep.heap.pop();
          sweep.heap.emplace(d, id);
        }
      });
    }
    MutexLock lock(sweep.mu);
    heap = std::move(sweep.heap);
    calls = sweep.calls;
    bound_gap_sum = sweep.bound_gap_sum;
  }
  result.stats.edit_distance_calls = calls;
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  result.stats.candidates = result.stats.edit_distance_calls;
  TREESIM_HISTOGRAM_RECORD("search.knn.refine_micros",
                           LatencyBucketsMicros(),
                           refine_timer.ElapsedMicros());
  TREESIM_COUNTER_ADD("search.knn.refined", calls);
  TREESIM_HISTOGRAM_RECORD("search.knn.refined_per_query", CountBuckets(),
                           calls);

  result.neighbors.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    result.neighbors[i] = {heap.top().second, heap.top().first};
    heap.pop();
  }
  result.stats.results = static_cast<int64_t>(result.neighbors.size());
  TREESIM_COUNTER_ADD("search.knn.results",
                      static_cast<int64_t>(result.neighbors.size()));

  StructuredLog& qlog = StructuredLog::Global();
  const int64_t total_micros =
      static_cast<int64_t>(result.stats.TotalSeconds() * 1e6);
  if (qlog.ShouldLog(total_micros)) {
    LogRecord rec;
    rec.Int("ts_micros", UnixMicros())
        .Str("event", "knn")
        .Int("query_id", qctx.query_id())
        .Str("filter", filter_name())
        .Int("k", k);
    AppendQueryStatsFields(result.stats, total_micros, rec);
    rec.Double("bound_gap_mean",
               calls > 0 ? static_cast<double>(bound_gap_sum) /
                               static_cast<double>(calls)
                         : 0.0);
    if (!result.neighbors.empty()) {
      rec.Int("kth_distance", result.neighbors.back().second);
    }
    qlog.Write(rec);
  }
  TREESIM_WINDOW_RECORD("search.knn.latency_window", total_micros);
  RecordFlight("knn", qctx.query_id(), k, result.stats, total_micros,
               BoundedCellsCounterValue() - bounded_cells_before);
  return result;
}

BatchKnnResult SimilaritySearch::BatchKnn(const std::vector<Tree>& queries,
                                          int k, ThreadPool* pool) {
  // The batch gets its own context; each member Knn() opens a nested one
  // (shadowing this id for its duration), so per-query telemetry keys to
  // the member query and the summary record below keys to the batch.
  const ScopedQueryContext qctx("batch_knn");
  const int64_t bounded_cells_before = BoundedCellsCounterValue();
  TREESIM_TRACE_SPAN("search.batch_knn");
  TREESIM_COUNTER_ADD("search.batch_knn.queries",
                      static_cast<int64_t>(queries.size()));
  BatchKnnResult out;
  out.per_query.reserve(queries.size());
  // Queries run in order — PrepareQuery may extend shared dictionaries, so
  // the per-query preparation must not interleave; each query's refinement
  // fans out over the pool and its stats merge when that fan-in joins.
  for (const Tree& query : queries) {
    out.per_query.push_back(Knn(query, k, pool));
    out.combined += out.per_query.back().stats;
  }

  // One summary record for the batch; the member queries logged themselves
  // individually above (subject to the slow-query threshold).
  StructuredLog& qlog = StructuredLog::Global();
  const int64_t total_micros =
      static_cast<int64_t>(out.combined.TotalSeconds() * 1e6);
  if (qlog.ShouldLog(total_micros)) {
    LogRecord rec;
    rec.Int("ts_micros", UnixMicros())
        .Str("event", "batch_knn")
        .Int("query_id", qctx.query_id())
        .Str("filter", filter_name())
        .Int("k", k)
        .Int("queries", static_cast<int64_t>(queries.size()));
    AppendQueryStatsFields(out.combined, total_micros, rec);
    qlog.Write(rec);
  }
  TREESIM_WINDOW_RECORD("search.batch_knn.latency_window", total_micros);
  RecordFlight("batch_knn", qctx.query_id(), k, out.combined, total_micros,
               BoundedCellsCounterValue() - bounded_cells_before);
  return out;
}

WeightedRangeResult SimilaritySearch::RangeWeighted(const Tree& query,
                                                    double tau,
                                                    const CostModel& costs) {
  const double c_min = costs.MinOperationCost();
  TREESIM_CHECK_GT(c_min, 0.0) << "MinOperationCost must be positive";
  const ScopedQueryContext qctx("range_weighted");
  const int64_t bounded_cells_before = BoundedCellsCounterValue();
  TREESIM_TRACE_SPAN("search.range_weighted");
  TREESIM_COUNTER_INC("search.range_weighted.queries");
  WeightedRangeResult result;
  result.stats.database_size = db_->size();

  // Filtering step: a tree within weighted distance tau needs at most
  // floor(tau / c_min) unit operations, so the unit-cost filters apply at
  // that scaled threshold.
  const double unit_tau = tau / c_min;
  std::vector<int> candidates;
  std::unique_ptr<FilterQueryContext> ctx;
  Stopwatch filter_timer;
  if (filter_ == nullptr) {
    candidates.resize(static_cast<size_t>(db_->size()));
    for (int id = 0; id < db_->size(); ++id) {
      candidates[static_cast<size_t>(id)] = id;
    }
  } else {
    ctx = filter_->PrepareQuery(query);
    candidates = filter_->RangeCandidates(*ctx, unit_tau);
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();
  result.stats.candidates = static_cast<int64_t>(candidates.size());

  Stopwatch refine_timer;
  const TedTree query_view = TedTree::FromTree(query);
  result.matches.reserve(candidates.size());
  for (const int id : candidates) {
    // Bounded verification at the query's own threshold: exact (and
    // bit-identical to the unbounded kernel) whenever d <= tau, +inf
    // otherwise — which the match test rejects identically.
    const double d = BoundedTreeEditDistanceWeighted(
        query_view, db_->ted_view(id), tau, costs);
    ++result.stats.edit_distance_calls;
#ifndef NDEBUG
    // Scaled soundness: EDist_w >= c_min * EDist_unit >= c_min * LowerBound.
    // The epsilon absorbs floating-point rounding of the scaling. (A
    // clamped d is +inf, which trivially satisfies the check.)
    if (ctx != nullptr) {
      TREESIM_DCHECK_LE(c_min * filter_->LowerBound(*ctx, id), d + 1e-9)
          << "unsound scaled lower bound from filter " << filter_->name()
          << " on tree " << id;
    }
#endif
    if (d <= tau) result.matches.emplace_back(id, d);
  }
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  std::sort(result.matches.begin(), result.matches.end(),
            [](const std::pair<int, double>& a,
               const std::pair<int, double>& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  result.stats.results = static_cast<int64_t>(result.matches.size());
  const int64_t total_micros =
      static_cast<int64_t>(result.stats.TotalSeconds() * 1e6);
  TREESIM_WINDOW_RECORD("search.range_weighted.latency_window", total_micros);
  RecordFlight("range_weighted", qctx.query_id(),
               static_cast<int64_t>(tau), result.stats, total_micros,
               BoundedCellsCounterValue() - bounded_cells_before);
  return result;
}

WeightedKnnResult SimilaritySearch::KnnWeighted(const Tree& query, int k,
                                                const CostModel& costs) {
  const double c_min = costs.MinOperationCost();
  TREESIM_CHECK_GT(c_min, 0.0) << "MinOperationCost must be positive";
  TREESIM_CHECK_GT(k, 0);
  const ScopedQueryContext qctx("knn_weighted");
  const int64_t bounded_cells_before = BoundedCellsCounterValue();
  TREESIM_TRACE_SPAN("search.knn_weighted");
  TREESIM_COUNTER_INC("search.knn_weighted.queries");
  WeightedKnnResult result;
  result.stats.database_size = db_->size();
  if (db_->size() == 0) return result;

  Stopwatch filter_timer;
  std::vector<double> bounds(static_cast<size_t>(db_->size()), 0.0);
  std::vector<int> order(static_cast<size_t>(db_->size()));
  for (int id = 0; id < db_->size(); ++id) {
    order[static_cast<size_t>(id)] = id;
  }
  if (filter_ != nullptr) {
    const std::unique_ptr<FilterQueryContext> ctx = filter_->PrepareQuery(query);
    for (int id = 0; id < db_->size(); ++id) {
      // Unit bound scaled into the weighted space.
      bounds[static_cast<size_t>(id)] = c_min * filter_->LowerBound(*ctx, id);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double ba = bounds[static_cast<size_t>(a)];
      const double bb = bounds[static_cast<size_t>(b)];
      if (ba != bb) return ba < bb;
      return a < b;
    });
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();

  Stopwatch refine_timer;
  const TedTree query_view = TedTree::FromTree(query);
  std::priority_queue<std::pair<double, int>> heap;
  for (const int id : order) {
    if (static_cast<int>(heap.size()) == k &&
        bounds[static_cast<size_t>(id)] > heap.top().first) {
      break;
    }
    // Same tightening threshold as the unit-cost sweep: the current k-th
    // best once the heap is full (ties at the k-th distance verify
    // exactly), +inf — i.e. the unbounded kernel — while it is filling.
    const double tau_b = static_cast<int>(heap.size()) == k
                             ? heap.top().first
                             : std::numeric_limits<double>::infinity();
    const double d = BoundedTreeEditDistanceWeighted(
        query_view, db_->ted_view(id), tau_b, costs);
    ++result.stats.edit_distance_calls;
    TREESIM_DCHECK_LE(bounds[static_cast<size_t>(id)], d + 1e-9)
        << "unsound scaled lower bound on tree " << id;
    if (static_cast<int>(heap.size()) < k) {
      heap.emplace(d, id);
    } else if (std::make_pair(d, id) < heap.top()) {
      heap.pop();
      heap.emplace(d, id);
    }
  }
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  result.stats.candidates = result.stats.edit_distance_calls;

  result.neighbors.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    result.neighbors[i] = {heap.top().second, heap.top().first};
    heap.pop();
  }
  result.stats.results = static_cast<int64_t>(result.neighbors.size());
  const int64_t total_micros =
      static_cast<int64_t>(result.stats.TotalSeconds() * 1e6);
  TREESIM_WINDOW_RECORD("search.knn_weighted.latency_window", total_micros);
  RecordFlight("knn_weighted", qctx.query_id(), k, result.stats,
               total_micros, BoundedCellsCounterValue() - bounded_cells_before);
  return result;
}

}  // namespace treesim
