#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// One timed interval of the traced run: a call into a layer, or a loop of
/// such calls. `parent` is the index of the enclosing span (-1 for a root);
/// spans of one operation share `op` (-1 for set-up spans).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op = -1;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// In-memory span store of one traced run; written out once, at the end.
/// Single-threaded: the replay runs on the calling thread.
class SpanRecorder {
 public:
  /// Opens a span that starts now; returns its index.
  int Open(const char* name, int parent, int64_t op);
  /// Ends span `index` now.
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start/end (ns), parent, op, self (ns).
  treesim::Status WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int parent, int64_t op)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1 : recorder->Open(name, parent, op)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
