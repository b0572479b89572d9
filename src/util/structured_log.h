#ifndef TREESIM_UTIL_STRUCTURED_LOG_H_
#define TREESIM_UTIL_STRUCTURED_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/sync.h"

/// Structured query logging — the per-query counterpart of the aggregate
/// metrics registry (util/metrics.h). Every search/join entry point emits
/// one JSON-lines record per query (query id, tau/k, candidate funnel,
/// stage timings, bound gap) into a process-wide sink; a slow-query
/// threshold turns the firehose into an incident log. The format is one
/// self-contained JSON object per line, so `jq`, `grep` and any log
/// shipper consume it without a schema registry.
///
/// Design mirrors util/metrics.h:
///   * One process-wide sink (StructuredLog::Global()), configured once by
///     the binary's entry point (`treesim_cli --query-log=FILE
///     --slow-query-ms=N`, bench --query-log=FILE); the library itself
///     never opens files behind the caller's back — logging is off until
///     OpenFile() succeeds.
///   * Emission is two phases: build a LogRecord (no lock, plain string
///     append) and Write() it (one Mutex-guarded fwrite + flush). Query
///     paths guard the whole block with ShouldLog(total_micros), so a
///     disabled sink costs one relaxed atomic load per query.
///   * Under -DTREESIM_METRICS=OFF the class degenerates to a stub:
///     enabled() is constantly false, OpenFile() reports the layer is
///     compiled out, Write() is a no-op — the query engines carry zero
///     logging code, same contract as the metrics macros.

#ifndef TREESIM_METRICS_ENABLED
#define TREESIM_METRICS_ENABLED 1
#endif

namespace treesim {

/// Incrementally built JSON object for one log line. Keys are appended in
/// call order; values are escaped/formatted on append, so ToJsonLine() is
/// a plain string move. Keys must be plain ASCII identifiers (they are
/// emitted verbatim); values are escaped.
class LogRecord {
 public:
  LogRecord& Str(const char* key, std::string_view value);
  LogRecord& Int(const char* key, int64_t value);
  LogRecord& Double(const char* key, double value);
  LogRecord& Bool(const char* key, bool value);

  /// The record as one JSON object, no trailing newline.
  std::string ToJsonLine() const;

 private:
  void AppendKey(const char* key);
  std::string body_;
};

/// Unix wall-clock time in microseconds (the one timestamp source outside
/// util/stopwatch.h; lives here because std::chrono is banned outside
/// src/util/ and bench/).
int64_t UnixMicros();

#if TREESIM_METRICS_ENABLED

/// Process-wide JSON-lines sink with a slow-query threshold.
class StructuredLog {
 public:
  static StructuredLog& Global();

  /// Opens (truncates) `path` and enables the sink. Fails when the file
  /// cannot be created; the sink stays disabled then.
  Status OpenFile(const std::string& path);

  /// Flushes and closes the sink; Write() becomes a no-op again.
  void Close();

  /// True once OpenFile() succeeded (and until Close()).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Only queries whose total latency reaches the threshold are logged;
  /// 0 (the default) logs every query.
  void set_slow_query_micros(int64_t micros) {
    slow_query_micros_.store(micros, std::memory_order_relaxed);
  }
  int64_t slow_query_micros() const {
    return slow_query_micros_.load(std::memory_order_relaxed);
  }

  /// The per-query gate: sink enabled AND the query is slow enough. The
  /// query paths build the record only when this is true.
  bool ShouldLog(int64_t total_micros) const {
    return enabled() && total_micros >= slow_query_micros();
  }

  /// True when `total_micros` reaches a nonzero threshold — the "slow"
  /// field of emitted records (false while the threshold is 0 and
  /// everything is being logged).
  bool IsSlow(int64_t total_micros) const {
    const int64_t threshold = slow_query_micros();
    return threshold > 0 && total_micros >= threshold;
  }

  /// Appends the record as one line. Thread-safe; no-op while disabled.
  void Write(const LogRecord& record);

  /// Records written since the sink was opened (testing/monitoring).
  int64_t records_written() const {
    return records_written_.load(std::memory_order_relaxed);
  }

 private:
  StructuredLog() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> slow_query_micros_{0};
  std::atomic<int64_t> records_written_{0};
  mutable Mutex mu_ TREESIM_LOCK_RANK(50);
  std::FILE* file_ TREESIM_GUARDED_BY(mu_) = nullptr;
};

#else  // !TREESIM_METRICS_ENABLED

/// Compile-out stub: the API survives (the CLI and tests keep building)
/// but enabled() is constantly false, so every ShouldLog()-guarded block
/// in the query engines is dead code.
class StructuredLog {
 public:
  static StructuredLog& Global();

  Status OpenFile(const std::string&) {
    return Status::FailedPrecondition(
        "structured query logging is compiled out (TREESIM_METRICS=OFF)");
  }
  void Close() {}
  bool enabled() const { return false; }
  void set_slow_query_micros(int64_t) {}
  int64_t slow_query_micros() const { return 0; }
  bool ShouldLog(int64_t) const { return false; }
  bool IsSlow(int64_t) const { return false; }
  void Write(const LogRecord&) {}
  int64_t records_written() const { return 0; }

 private:
  StructuredLog() = default;
};

#endif  // TREESIM_METRICS_ENABLED

}  // namespace treesim

#endif  // TREESIM_UTIL_STRUCTURED_LOG_H_
