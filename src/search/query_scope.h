#ifndef TREESIM_SEARCH_QUERY_SCOPE_H_
#define TREESIM_SEARCH_QUERY_SCOPE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "filters/filter_index.h"
#include "search/query_stats.h"
#include "util/flight_recorder.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/query_context.h"
#include "util/safe_math.h"
#include "util/trace.h"

namespace treesim {

/// The telemetry of one query operation, named from its tag: the tag is the
/// query-context tag and the flight-record op, the top span is
/// "search.<tag>", every metric is "search.<tag>.<suffix>". Built once per
/// operation as a never-destroyed function-local static, since trace
/// events keep the span-name pointer.
struct QueryOp {
  /// `op_tag` must be a string literal; `calls_suffix` names the counter
  /// bumped once per call.
  explicit QueryOp(const char* op_tag, const char* calls_suffix = "queries");

  std::string Name(const char* suffix) const { return span + "." + suffix; }
  Counter& NamedCounter(const char* suffix) const {
    return MetricsRegistry::Global().GetCounter(Name(suffix));
  }
  Histogram& NamedHistogram(const char* suffix,
                            const std::vector<int64_t>& buckets) const {
    return MetricsRegistry::Global().GetHistogram(Name(suffix), buckets);
  }

  const char* tag;
  std::string span;
  Counter& calls;
  // The candidate funnel and stage times of QueryStats.
  Counter& candidates;
  Counter& refined;
  Counter& results;
  Histogram& filter_micros;
  Histogram& refine_micros;
  LatencyWindow& window;
};

/// One query's telemetry from entry to exit — the one place a search or
/// join entry point opens and closes a query. Construction allocates the
/// query id (ScopedQueryContext, which pool workers inherit), opens the top
/// span and bumps the per-call counter. Destruction, on every return path,
/// records `stats` as it then reads exactly once: the funnel metrics, one
/// latency-window sample, one flight record and — when the sink is open
/// and the query slow enough — one query-log record.
class QueryScope {
 public:
  /// `stats` and `filter` (named in the log; nullptr = sequential scan)
  /// must outlive the scope; `calls` is the per-call counter's increment.
  QueryScope(const QueryOp& op, const QueryStats& stats,
             const FilterIndex* filter, int64_t calls = 1);
  ~QueryScope();

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// The operation's parameter, tau or k: the first operation-specific log
  /// field, and the flight record's integer `param` by
  /// SaturatingCastToInt64 (so a tau of +inf or NaN stays defined).
  template <typename T>
  void Param(const char* key, T value) {
    param_ = SaturatingCastToInt64(static_cast<double>(value));
    Field(key, value);
  }

  /// Adds an operation-specific log field; `key` must be a string literal.
  /// Integers log as integers, reals as doubles (non-finite ones as null).
  template <typename T>
  void Field(const char* key, T value) {
    TREESIM_CHECK_LT(field_count_, kMaxFields);
    fields_[field_count_++] = {key, static_cast<double>(value),
                               std::is_integral_v<T>};
  }

  /// The query-log event; defaults to the tag.
  void set_event(const char* event) { event_ = event; }

 private:
  struct LogField {
    const char* key;
    double value;
    bool integral;
  };
  static constexpr int kMaxFields = 3;

  /// Only runs for queries the sink takes, so it stays off the hot path.
  void TREESIM_COLD WriteLogRecord(const FlightRecord& rec) const;

  const QueryOp& op_;
  const QueryStats& stats_;
  const FilterIndex* filter_;
  const char* event_;
  const ScopedQueryContext context_;  // before span_: the span carries the id
  const TraceSpan span_;
  const int64_t bounded_cells_before_;
  int64_t param_ = 0;
  LogField fields_[kMaxFields] = {};
  int field_count_ = 0;
};

}  // namespace treesim

#endif  // TREESIM_SEARCH_QUERY_SCOPE_H_
