#include "search/query_scope.h"

#include <string>

#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/structured_log.h"

namespace treesim {
namespace {

/// The process-wide bounded-TED cell counter (ted/bounded_ted.cc), read
/// around a query for its flight record's delta — approximate when queries
/// overlap in one process. Constant 0 under TREESIM_METRICS=OFF.
int64_t BoundedCellsCounterValue() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("ted.bounded_cells_computed");
  return counter.value();
}

int64_t Micros(double seconds) { return static_cast<int64_t>(seconds * 1e6); }

}  // namespace

QueryOp::QueryOp(const char* op_tag, const char* calls_suffix)
    : tag(op_tag),
      span(std::string("search.") + op_tag),
      calls(NamedCounter(calls_suffix)),
      candidates(NamedCounter("candidates")),
      refined(NamedCounter("refined")),
      results(NamedCounter("results")),
      filter_micros(NamedHistogram("filter_micros", LatencyBucketsMicros())),
      refine_micros(NamedHistogram("refine_micros", LatencyBucketsMicros())),
      window(MetricsRegistry::Global().GetWindow(Name("latency_window"))) {}

QueryScope::QueryScope(const QueryOp& op, const QueryStats& stats,
                       const FilterIndex* filter, int64_t calls)
    : op_(op),
      stats_(stats),
      filter_(filter),
      event_(op.tag),
      context_(op.tag),
      span_(op.span.c_str()),
      bounded_cells_before_(BoundedCellsCounterValue()) {
  op.calls.Increment(calls);
}

QueryScope::~QueryScope() {
  if constexpr (!kMetricsEnabled) return;  // no clock read, no record
  FlightRecord rec;
  rec.query_id = context_.query_id();
  rec.ts_micros = UnixMicros();
  rec.op = op_.tag;
  rec.param = param_;
  rec.database_size = stats_.database_size;
  rec.candidates = stats_.candidates;
  rec.refined = stats_.edit_distance_calls;
  rec.results = stats_.results;
  rec.filter_micros = Micros(stats_.filter_seconds);
  rec.refine_micros = Micros(stats_.refine_seconds);
  rec.total_micros = Micros(stats_.TotalSeconds());
  rec.bounded_cells_delta = BoundedCellsCounterValue() - bounded_cells_before_;
  StructuredLog& qlog = StructuredLog::Global();
  rec.slow = qlog.IsSlow(rec.total_micros);

  op_.candidates.Increment(rec.candidates);
  op_.refined.Increment(rec.refined);
  op_.results.Increment(rec.results);
  op_.filter_micros.Record(rec.filter_micros);
  op_.refine_micros.Record(rec.refine_micros);
  op_.window.Record(rec.total_micros);
  FlightRecorder::Global().Record(rec);
  // A closed sink costs one relaxed load per query.
  if (qlog.ShouldLog(rec.total_micros)) WriteLogRecord(rec);
}

void QueryScope::WriteLogRecord(const FlightRecord& rec) const {
  LogRecord log;
  log.Int("ts_micros", rec.ts_micros)
      .Str("event", event_)
      .Int("query_id", rec.query_id)
      .Str("filter", filter_ == nullptr ? "Sequential" : filter_->name());
  for (int f = 0; f < field_count_; ++f) {
    const LogField& field = fields_[f];
    if (field.integral) {
      log.Int(field.key, static_cast<int64_t>(field.value));
    } else {
      log.Double(field.key, field.value);
    }
  }
  log.Int("database_size", rec.database_size)
      .Int("candidates", rec.candidates)
      .Int("refined", rec.refined)
      .Int("results", rec.results)
      .Int("filter_micros", rec.filter_micros)
      .Int("refine_micros", rec.refine_micros)
      .Int("total_micros", rec.total_micros)
      .Bool("slow", rec.slow);
  StructuredLog::Global().Write(log);
}

}  // namespace treesim
