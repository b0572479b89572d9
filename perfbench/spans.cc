#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "tree/forest_io.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Open(const char* name, int parent, int64_t op) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

treesim::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  std::string out;
  out.reserve(spans_.size() * 96);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
           "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"op\":" + std::to_string(s.op) +
           ",\"self_ns\":" + std::to_string(self[i]) + "}\n";
  }
  return treesim::WriteStringToFile(out, path);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, reach);
      const int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

}  // namespace perfbench
