#include "search/similarity_search.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <string>

#include "filters/filter_index.h"
#include "search/query_scope.h"
#include "ted/bounded_ted.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"
#include "util/stopwatch.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace treesim {
namespace {

/// Unit-cost distances: the integer TED of the paper's default model.
/// kUnbounded is the threshold that delegates to the unbounded kernel;
/// kSlack the tolerance of the debug soundness checks.
struct UnitCost {
  using Distance = int;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();
  static constexpr double kSlack = 0.0;
  double c_min = 1.0;

  int operator()(const TedTree& a, const TedTree& b, int tau) const {
    return BoundedTreeEditDistance(a, b, tau);
  }
  static int64_t Gap(int d, int /*tau_b*/, double bound) {
    return d - static_cast<int64_t>(bound);
  }
};

/// General CostModel distances (Section 2.1): a script of weighted cost w
/// has at least w / c_min operations, so unit bounds scale by c_min and a
/// range threshold tau becomes tau / c_min on the unit filters. With
/// c_min = 1 both are exact, which is why UnitCost runs the same pipeline.
struct WeightedCost {
  using Distance = double;
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  static constexpr double kSlack = 1e-9;  // rounding of the scaling

  explicit WeightedCost(const CostModel& model)
      : costs(model), c_min(model.MinOperationCost()) {
    TREESIM_CHECK_GT(c_min, 0.0) << "MinOperationCost must be positive";
  }
  double operator()(const TedTree& a, const TedTree& b, double tau) const {
    return BoundedTreeEditDistanceWeighted(a, b, tau, costs);
  }
  /// A rejection reports +inf; its gap is taken at the threshold it failed.
  static int64_t Gap(double d, double tau_b, double bound) {
    return SaturatingCastToInt64(std::min(d, tau_b) - bound);
  }

  const CostModel& costs;
  double c_min;
};

/// A search operation's stage telemetry beyond the QueryScope funnel: the
/// "search.<tag>.filter" / ".refine" spans, filter survivors (range) or
/// refinements (k-NN) per query, and for k-NN the computed bounds and the
/// bound gap of every refined candidate.
struct SearchOp : QueryOp {
  SearchOp(const char* op_tag, bool knn)
      : QueryOp(op_tag),
        filter_span(Name("filter")),
        refine_span(Name("refine")),
        per_query(NamedHistogram(
            knn ? "refined_per_query" : "candidates_per_query",
            CountBuckets())),
        bounds_computed(knn ? &NamedCounter("bounds_computed") : nullptr),
        bound_gap(knn ? &NamedHistogram("bound_gap", SmallValueBuckets())
                      : nullptr) {}

  std::string filter_span;
  std::string refine_span;
  Histogram& per_query;
  Counter* bounds_computed;  // k-NN only
  Histogram* bound_gap;      // k-NN only
};

/// The range variant of Algorithm 2 for both cost models: candidates from
/// FilterIndex::RangeCandidates at the unit threshold tau / c_min (every
/// tree without a filter), each verified by the distance bounded at tau —
/// exact when <= tau, some value > tau otherwise, which the match test
/// rejects like the full distance would. Every candidate's distance has its
/// own slot, so any pool yields exactly the sequential matches and stats.
template <typename Result, typename Cost>
Result RunRange(const TreeDatabase& db, FilterIndex* filter, const Tree& query,
                typename Cost::Distance tau, const Cost& cost,
                const SearchOp& op, ThreadPool* pool) {
  using D = typename Cost::Distance;
  Result result;
  QueryScope scope(op, result.stats, filter);
  scope.Param("tau", tau);
  result.stats.database_size = db.size();

  // The filter context outlives the stage for the debug soundness check.
  std::vector<int> candidates;
  std::unique_ptr<FilterQueryContext> ctx;
  Stopwatch filter_timer;
  {
    const TraceSpan span(op.filter_span.c_str());
    if (filter == nullptr) {
      candidates.resize(static_cast<size_t>(db.size()));
      std::iota(candidates.begin(), candidates.end(), 0);
    } else {
      ctx = filter->PrepareQuery(query);
      candidates = filter->RangeCandidates(*ctx, tau / cost.c_min);
    }
  }
  op.per_query.Record(static_cast<int64_t>(candidates.size()));
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();
  result.stats.candidates = static_cast<int64_t>(candidates.size());

  Stopwatch refine_timer;
  const TedTree query_view = TedTree::FromTree(query);
  std::vector<D> distances(candidates.size(), D{});
  {
    const TraceSpan span(op.refine_span.c_str());
    ParallelFor(pool, static_cast<int64_t>(candidates.size()), [&](int64_t c) {
      const int id = candidates[static_cast<size_t>(c)];
      const D d = cost(query_view, db.ted_view(id), tau);
      // Theorem 3.2/3.3, scaled by c_min: no refined candidate's bound
      // exceeds its distance (a clamped d exceeds tau >= bound).
      TREESIM_DCHECK(ctx == nullptr ||
                     cost.c_min * filter->LowerBound(*ctx, id) <=
                         static_cast<double>(d) + Cost::kSlack)
          << "unsound lower bound from filter " << filter->name()
          << " on tree " << id;
      distances[static_cast<size_t>(c)] = d;
    });
  }
  result.stats.edit_distance_calls = static_cast<int64_t>(candidates.size());
  result.matches.reserve(static_cast<size_t>(std::count_if(
      distances.begin(), distances.end(), [&](D d) { return d <= tau; })));
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (distances[c] <= tau) {
      result.matches.emplace_back(candidates[c], distances[c]);
    }
  }
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  std::sort(result.matches.begin(), result.matches.end(),
            [](const std::pair<int, D>& a, const std::pair<int, D>& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  result.stats.results = static_cast<int64_t>(result.matches.size());
  return result;
}

/// Algorithm 2 for both cost models and every pool size: a lower bound for
/// every tree, then a sweep in ascending (bound, id) order over blocks of
/// max(k, 8 * workers) trees into a heap of the k best (distance, id). A
/// tree whose bound exceeds the current k-th best is skipped, and a block
/// whose first bound does ends the sweep; each verification is bounded by
/// the k-th best it saw. Without a pool or with one worker this verifies
/// exactly Algorithm 2's sequence at its thresholds; more workers may
/// verify a few trees more but find the same neighbors (DESIGN.md §9).
template <typename Result, typename Cost>
Result RunKnn(const TreeDatabase& db, FilterIndex* filter, const Tree& query,
              int k, const Cost& cost, const SearchOp& op, ThreadPool* pool) {
  using D = typename Cost::Distance;
  Result result;
  QueryScope scope(op, result.stats, filter);
  scope.Param("k", k);
  const int64_t n = db.size();
  result.stats.database_size = n;

  // Lines 1-4: (bound, id) for every tree, ascending. The bounds fan out
  // (pure reads); PrepareQuery stays on this thread, as it may extend
  // shared dictionaries.
  Stopwatch filter_timer;
  std::vector<std::pair<double, int>> order(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) order[static_cast<size_t>(id)].second = id;
  if (filter != nullptr) {
    const TraceSpan span(op.filter_span.c_str());
    const std::unique_ptr<FilterQueryContext> ctx = filter->PrepareQuery(query);
    ParallelFor(pool, n, [&](int64_t i) {
      std::pair<double, int>& entry = order[static_cast<size_t>(i)];
      entry.first = cost.c_min * filter->LowerBound(*ctx, entry.second);
    });
    op.bounds_computed->Increment(n);
    std::sort(order.begin(), order.end());
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();

  // Lines 5-15. `kth` is the k-th best distance once the heap is full and
  // unbounded before, so `bound > kth` is the pruning test throughout.
  Stopwatch refine_timer;
  const TedTree query_view = TedTree::FromTree(query);
  struct Sweep {
    Mutex mu;
    std::priority_queue<std::pair<D, int>> heap TREESIM_GUARDED_BY(mu);
    int64_t calls TREESIM_GUARDED_BY(mu) = 0;
    double bound_gap_sum TREESIM_GUARDED_BY(mu) = 0.0;
    D kth TREESIM_GUARDED_BY(mu) = Cost::kUnbounded;
  } sweep;
  {
    const TraceSpan span(op.refine_span.c_str());
    const int64_t block = std::max<int64_t>(
        k, int64_t{8} * (pool == nullptr ? 1 : pool->size()));
    for (int64_t start = 0; start < n; start += block) {
      {
        MutexLock lock(sweep.mu);
        if (order[static_cast<size_t>(start)].first >
            static_cast<double>(sweep.kth)) {
          break;  // bounds ascend: every remaining block is prunable
        }
      }
      ParallelFor(pool, std::min(block, n - start), [&](int64_t bi) {
        const auto [bound, id] = order[static_cast<size_t>(start + bi)];
        D tau_b = Cost::kUnbounded;
        {
          MutexLock lock(sweep.mu);
          tau_b = sweep.kth;
        }
        if (bound > static_cast<double>(tau_b)) return;
        const D d = cost(query_view, db.ted_view(id), tau_b);
        TREESIM_DCHECK_LE(bound, static_cast<double>(d) + Cost::kSlack)
            << "unsound lower bound on tree " << id;
        const int64_t gap = Cost::Gap(d, tau_b, bound);
        op.bound_gap->Record(gap);
        MutexLock lock(sweep.mu);
        ++sweep.calls;
        sweep.bound_gap_sum =
            CheckedAddAny(sweep.bound_gap_sum, static_cast<double>(gap));
        if (static_cast<int>(sweep.heap.size()) < k) {
          sweep.heap.emplace(d, id);
        } else if (std::make_pair(d, id) < sweep.heap.top()) {
          sweep.heap.pop();
          sweep.heap.emplace(d, id);
        }
        if (static_cast<int>(sweep.heap.size()) == k) {
          sweep.kth = sweep.heap.top().first;
        }
      });
    }
  }
  MutexLock lock(sweep.mu);  // the workers joined; held for the analysis
  result.stats.edit_distance_calls = sweep.calls;
  result.stats.candidates = sweep.calls;
  op.per_query.Record(sweep.calls);
  result.neighbors.resize(sweep.heap.size());
  for (size_t i = sweep.heap.size(); i-- > 0;) {
    result.neighbors[i] = {sweep.heap.top().second, sweep.heap.top().first};
    sweep.heap.pop();
  }
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();
  result.stats.results = static_cast<int64_t>(result.neighbors.size());
  scope.Field("bound_gap_mean",
              sweep.calls > 0
                  ? sweep.bound_gap_sum / static_cast<double>(sweep.calls)
                  : 0.0);
  if (!result.neighbors.empty()) {
    scope.Field("kth_distance", result.neighbors.back().second);
  }
  return result;
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
  static const SearchOp& op = *new SearchOp("range", /*knn=*/false);
  return RunRange<RangeResult>(*db_, filter_.get(), query, tau, UnitCost{},
                               op, pool);
}

KnnResult SimilaritySearch::Knn(const Tree& query, int k, ThreadPool* pool) {
  TREESIM_CHECK_GT(k, 0);
  static const SearchOp& op = *new SearchOp("knn", /*knn=*/true);
  return RunKnn<KnnResult>(*db_, filter_.get(), query, k, UnitCost{}, op,
                           pool);
}

BatchKnnResult SimilaritySearch::BatchKnn(const std::vector<Tree>& queries,
                                          int k, ThreadPool* pool) {
  // The batch is a query of its own; each member Knn() opens a nested one
  // whose id shadows the batch's while it runs.
  static const QueryOp& op = *new QueryOp("batch_knn");
  BatchKnnResult out;
  QueryScope scope(op, out.combined, filter_.get(),
                   static_cast<int64_t>(queries.size()));
  scope.Param("k", k);
  scope.Field("queries", static_cast<int64_t>(queries.size()));
  out.per_query.reserve(queries.size());
  // In order: PrepareQuery may extend shared dictionaries, so queries must
  // not interleave; each one fans out over the pool on its own.
  for (const Tree& query : queries) {
    out.per_query.push_back(Knn(query, k, pool));
    out.combined += out.per_query.back().stats;
  }
  return out;
}

WeightedRangeResult SimilaritySearch::RangeWeighted(const Tree& query,
                                                    double tau,
                                                    const CostModel& costs) {
  static const SearchOp& op = *new SearchOp("range_weighted", /*knn=*/false);
  return RunRange<WeightedRangeResult>(*db_, filter_.get(), query, tau,
                                       WeightedCost(costs), op, nullptr);
}

WeightedKnnResult SimilaritySearch::KnnWeighted(const Tree& query, int k,
                                                const CostModel& costs) {
  const WeightedCost cost(costs);
  TREESIM_CHECK_GT(k, 0);
  static const SearchOp& op = *new SearchOp("knn_weighted", /*knn=*/true);
  return RunKnn<WeightedKnnResult>(*db_, filter_.get(), query, k, cost, op,
                                   nullptr);
}

}  // namespace treesim
