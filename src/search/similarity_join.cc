#include "search/similarity_join.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "filters/filter_index.h"
#include "ted/bounded_ted.h"
#include "util/flight_recorder.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_context.h"
#include "util/safe_math.h"
#include "util/stopwatch.h"
#include "util/structured_log.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace treesim {
namespace {

/// Left trees whose candidate pairs are held at once. A join without a
/// filter makes every pair a candidate, so this bounds the working set to
/// kLeftBlock * |right| pairs, while a block still spreads enough pairs
/// over any pool for the workers to balance.
constexpr int kLeftBlock = 64;

/// Monotonic value of the bounded-TED cell counter, used to attribute the
/// cells a single join computed to its flight record.
int64_t BoundedCellsCounterValue() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("ted.bounded_cells_computed");
  return counter.value();
}

/// Publishes one completed-join record into the always-on flight recorder.
void RecordFlight(int64_t query_id, int64_t tau, const QueryStats& stats,
                  int64_t total_micros, int64_t bounded_cells_delta) {
  if constexpr (kMetricsEnabled) {
    FlightRecord rec;
    rec.query_id = query_id;
    rec.ts_micros = UnixMicros();
    rec.op = "join";
    rec.param = tau;
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

/// Query-log record for one join call (both the parallel and the
/// sequential paths funnel through here before returning). Cold: runs
/// once per join, after the timers stop, and only when sampled in.
void TREESIM_COLD MaybeLogJoin(const JoinResult& result, int64_t query_id,
                               int tau, bool self, int64_t left_size,
                               const std::string& filter_name) {
  StructuredLog& qlog = StructuredLog::Global();
  const int64_t total_micros =
      static_cast<int64_t>(result.stats.TotalSeconds() * 1e6);
  if (!qlog.ShouldLog(total_micros)) return;
  LogRecord rec;
  rec.Int("ts_micros", UnixMicros())
      .Str("event", self ? "self_join" : "join")
      .Int("query_id", query_id)
      .Str("filter", filter_name)
      .Int("tau", tau)
      .Int("left_size", left_size)
      .Int("database_size", result.stats.database_size)
      .Int("candidates", result.stats.candidates)
      .Int("refined", result.stats.edit_distance_calls)
      .Int("results", result.stats.results)
      .Int("filter_micros",
           static_cast<int64_t>(result.stats.filter_seconds * 1e6))
      .Int("refine_micros",
           static_cast<int64_t>(result.stats.refine_seconds * 1e6))
      .Int("total_micros", total_micros)
      .Bool("slow", qlog.IsSlow(total_micros));
  qlog.Write(rec);
}

}  // namespace

SimilarityJoin::SimilarityJoin(const TreeDatabase* right,
                               std::unique_ptr<FilterIndex> filter)
    : right_(right), filter_(std::move(filter)) {
  TREESIM_CHECK(right_ != nullptr);
  if (filter_ != nullptr) filter_->Build(right_->trees());
}

JoinResult SimilarityJoin::Join(const TreeDatabase& left, int tau,
                                ThreadPool* pool) {
  return JoinImpl(left, tau, /*self=*/false, pool);
}

JoinResult SimilarityJoin::SelfJoin(int tau, ThreadPool* pool) {
  return JoinImpl(*right_, tau, /*self=*/true, pool);
}

JoinResult SimilarityJoin::JoinImpl(const TreeDatabase& left, int tau,
                                    bool self, ThreadPool* pool) {
  TREESIM_CHECK(left.label_dict() == right_->label_dict())
      << "join sides must share one label dictionary";
  const ScopedQueryContext qctx("join");
  const int64_t bounded_cells_before = BoundedCellsCounterValue();
  TREESIM_TRACE_SPAN("search.join");
  TREESIM_COUNTER_INC("search.join.joins");
  JoinResult result;
  for (int begin = 0; begin < left.size(); begin += kLeftBlock) {
    JoinBlock(left, begin, std::min(left.size(), begin + kLeftBlock), tau,
              self, pool, result);
  }
  result.stats.results = static_cast<int64_t>(result.pairs.size());
  TREESIM_COUNTER_ADD("search.join.pairs_considered",
                      result.stats.database_size);
  TREESIM_COUNTER_ADD("search.join.candidates", result.stats.candidates);
  TREESIM_COUNTER_ADD("search.join.refined",
                      result.stats.edit_distance_calls);
  TREESIM_COUNTER_ADD("search.join.results", result.stats.results);
  TREESIM_HISTOGRAM_RECORD(
      "search.join.filter_micros", LatencyBucketsMicros(),
      static_cast<int64_t>(result.stats.filter_seconds * 1e6));
  TREESIM_HISTOGRAM_RECORD(
      "search.join.refine_micros", LatencyBucketsMicros(),
      static_cast<int64_t>(result.stats.refine_seconds * 1e6));
  const int64_t total_micros =
      static_cast<int64_t>(result.stats.TotalSeconds() * 1e6);
  TREESIM_WINDOW_RECORD("search.join.latency_window", total_micros);
  RecordFlight(qctx.query_id(), tau, result.stats, total_micros,
               BoundedCellsCounterValue() - bounded_cells_before);
  MaybeLogJoin(result, qctx.query_id(), tau, self, left.size(),
               filter_ == nullptr ? "Sequential" : filter_->name());
  return result;
}

void SimilarityJoin::JoinBlock(const TreeDatabase& left, int begin, int end,
                               int tau, bool self, ThreadPool* pool,
                               JoinResult& result) const {
  // Filter. Query preparation runs sequentially in left order: PrepareQuery
  // may extend the filter's shared dictionaries, so it must not interleave,
  // and id order keeps any interning deterministic. The candidate passes
  // are const and fan out, one left tree per slot. A self join pairs each
  // tree only with larger ids, so the rest of its candidate set is dropped.
  Stopwatch filter_timer;
  const int block = end - begin;
  std::vector<std::unique_ptr<FilterQueryContext>> contexts;
  if (filter_ != nullptr) {
    contexts.reserve(static_cast<size_t>(block));
    for (int l = begin; l < end; ++l) {
      contexts.push_back(filter_->PrepareQuery(left.tree(l)));
    }
  }
  std::vector<std::vector<int>> candidates(static_cast<size_t>(block));
  ParallelFor(pool, block, [&](int64_t i) {
    const int first = self ? begin + static_cast<int>(i) + 1 : 0;
    std::vector<int>& ids = candidates[static_cast<size_t>(i)];
    if (filter_ == nullptr) {
      ids.resize(static_cast<size_t>(std::max(0, right_->size() - first)));
      std::iota(ids.begin(), ids.end(), first);
    } else {
      ids = filter_->RangeCandidates(*contexts[static_cast<size_t>(i)], tau);
      ids.erase(ids.begin(), std::lower_bound(ids.begin(), ids.end(), first));
    }
  });
  // Flatten to (l, r) pairs, ascending — the order the output keeps.
  size_t pair_count = 0;
  for (const std::vector<int>& ids : candidates) {
    pair_count = CheckedAdd(pair_count, ids.size());
  }
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(pair_count);
  for (int l = begin; l < end; ++l) {
    result.stats.database_size = CheckedAdd<int64_t>(
        result.stats.database_size, right_->size() - (self ? l + 1 : 0));
    for (const int r : candidates[static_cast<size_t>(l - begin)]) {
      pairs.emplace_back(l, r);
    }
  }
  result.stats.filter_seconds += filter_timer.ElapsedSeconds();
  result.stats.candidates =
      CheckedAdd(result.stats.candidates, static_cast<int64_t>(pair_count));

  // Refine. One bounded verification per candidate pair, each into its own
  // slot, so the workers balance on pairs rather than on left trees of
  // uneven candidate counts; exact for every emitted pair, tau + 1 for
  // every rejected one.
  Stopwatch refine_timer;
  std::vector<int> distances(pair_count, 0);
  ParallelFor(pool, static_cast<int64_t>(pair_count), [&](int64_t p) {
    const auto [l, r] = pairs[static_cast<size_t>(p)];
    distances[static_cast<size_t>(p)] =
        BoundedTreeEditDistance(left.ted_view(l), right_->ted_view(r), tau);
  });
  result.stats.edit_distance_calls = CheckedAdd(
      result.stats.edit_distance_calls, static_cast<int64_t>(pair_count));
  size_t within_tau = 0;
  for (const int d : distances) {
    if (d <= tau) ++within_tau;
  }
  // Grow geometrically: an exact reserve per block would copy the pairs of
  // all earlier blocks again on every block.
  const size_t needed = CheckedAdd(result.pairs.size(), within_tau);
  if (needed > result.pairs.capacity()) {
    result.pairs.reserve(std::max(needed, 2 * result.pairs.capacity()));
  }
  for (size_t p = 0; p < pair_count; ++p) {
    if (distances[p] <= tau) {
      result.pairs.emplace_back(pairs[p].first, pairs[p].second, distances[p]);
    }
  }
  result.stats.refine_seconds += refine_timer.ElapsedSeconds();
}

}  // namespace treesim
