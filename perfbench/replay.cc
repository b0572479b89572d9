#include "replay.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "filters/filter_index.h"
#include "ted/bounded_ted.h"
#include "ted/zhang_shasha.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using treesim::Counter;
using treesim::FilterQueryContext;
using treesim::TedTree;
using treesim::Tree;

Counter& RegistryCounter(const char* name) {
  return treesim::MetricsRegistry::Global().GetCounter(name);
}

/// The library's exact work counters the replay reads as deltas.
struct WorkCounters {
  Counter& cells = RegistryCounter("ted.bounded_cells_computed");
  Counter& band_pruned = RegistryCounter("ted.bounded_cells_band_pruned");
  Counter& early_exits = RegistryCounter("ted.bounded_keyroot_early_exits");
  Counter& searchlbound = RegistryCounter("positional.searchlbound_calls");
};

const WorkCounters& Counters() {
  static const WorkCounters counters;
  return counters;
}

/// Adds the TED counters' growth since construction to `counts`.
class TedCounterDelta {
 public:
  explicit TedCounterDelta(ReplayCounts& counts)
      : counts_(counts),
        cells_(Counters().cells.value()),
        band_pruned_(Counters().band_pruned.value()),
        early_exits_(Counters().early_exits.value()) {}
  ~TedCounterDelta() {
    counts_.cells_computed += Counters().cells.value() - cells_;
    counts_.cells_band_pruned += Counters().band_pruned.value() - band_pruned_;
    counts_.early_exits += Counters().early_exits.value() - early_exits_;
  }
  TedCounterDelta(const TedCounterDelta&) = delete;
  TedCounterDelta& operator=(const TedCounterDelta&) = delete;

 private:
  ReplayCounts& counts_;
  int64_t cells_;
  int64_t band_pruned_;
  int64_t early_exits_;
};

TedTree QueryView(const Tree& query, SpanRecorder& recorder, int root,
                  int64_t op_id) {
  const ScopedSpan span(&recorder, "ted.view", root, op_id);
  return TedTree::FromTree(query);
}

/// MayQualify over every database tree; the ids that pass, ascending.
std::vector<int> RangeCandidates(const FilterQueryContext& ctx, int tau,
                                 const treesim::TreeDatabase& db,
                                 const treesim::BiBranchFilter& filter,
                                 ReplayCounts& counts, SpanRecorder& recorder,
                                 int root, int64_t op_id) {
  const ScopedSpan span(&recorder, "filters.bound", root, op_id);
  const int64_t before = Counters().searchlbound.value();
  std::vector<int> candidates;
  for (int id = 0; id < db.size(); ++id) {
    if (filter.MayQualify(ctx, id, tau)) candidates.push_back(id);
  }
  counts.bound_calls += db.size();
  counts.searchlbound_calls += Counters().searchlbound.value() - before;
  return candidates;
}

ReplayOutcome ReplayKnn(const Tree& query, int k,
                        const treesim::TreeDatabase& db,
                        treesim::BiBranchFilter& filter,
                        SpanRecorder& recorder, int root, int64_t op_id) {
  ReplayOutcome out;
  ReplayCounts& counts = out.counts;
  std::unique_ptr<FilterQueryContext> ctx;
  {
    const ScopedSpan span(&recorder, "filters.prepare", root, op_id);
    ctx = filter.PrepareQuery(query);
  }
  const size_t n = static_cast<size_t>(db.size());
  std::vector<double> bounds(n, 0.0);
  {
    const ScopedSpan span(&recorder, "filters.bound", root, op_id);
    const int64_t before = Counters().searchlbound.value();
    for (int id = 0; id < db.size(); ++id) {
      bounds[static_cast<size_t>(id)] = filter.LowerBound(*ctx, id);
    }
    counts.bound_calls += db.size();
    counts.searchlbound_calls += Counters().searchlbound.value() - before;
  }
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ba = bounds[static_cast<size_t>(a)];
    const double bb = bounds[static_cast<size_t>(b)];
    return ba != bb ? ba < bb : a < b;
  });
  const TedTree view = QueryView(query, recorder, root, op_id);

  // Algorithm 2's sweep: verify in bound order against the running k-th
  // best, stop once the next bound exceeds it.
  std::priority_queue<std::pair<int, int>> heap;  // (distance, id)
  {
    const ScopedSpan span(&recorder, "ted.refine", root, op_id);
    const TedCounterDelta delta(counts);
    for (const int id : order) {
      const bool full = static_cast<int>(heap.size()) == k;
      if (full && bounds[static_cast<size_t>(id)] >
                      static_cast<double>(heap.top().first)) {
        break;
      }
      const int tau = full ? heap.top().first : std::numeric_limits<int>::max();
      const int d = treesim::BoundedTreeEditDistance(view, db.ted_view(id), tau);
      ++counts.ted_calls;
      if (full && d > tau) ++counts.ted_rejects;
      if (!full) {
        heap.emplace(d, id);
      } else if (std::make_pair(d, id) < heap.top()) {
        heap.pop();
        heap.emplace(d, id);
      }
    }
  }
  out.answer.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out.answer[i] = {0, heap.top().second, heap.top().first};
    heap.pop();
  }
  counts.results = static_cast<int64_t>(out.answer.size());
  return out;
}

ReplayOutcome ReplayRange(const Tree& query, int tau,
                          const treesim::TreeDatabase& db,
                          treesim::BiBranchFilter& filter,
                          SpanRecorder& recorder, int root, int64_t op_id) {
  ReplayOutcome out;
  ReplayCounts& counts = out.counts;
  std::unique_ptr<FilterQueryContext> ctx;
  {
    const ScopedSpan span(&recorder, "filters.prepare", root, op_id);
    ctx = filter.PrepareQuery(query);
  }
  const std::vector<int> candidates =
      RangeCandidates(*ctx, tau, db, filter, counts, recorder, root, op_id);
  const TedTree view = QueryView(query, recorder, root, op_id);
  {
    const ScopedSpan span(&recorder, "ted.refine", root, op_id);
    const TedCounterDelta delta(counts);
    for (const int id : candidates) {
      const int d = treesim::BoundedTreeEditDistance(view, db.ted_view(id), tau);
      ++counts.ted_calls;
      if (d <= tau) {
        out.answer.emplace_back(0, id, d);
      } else {
        ++counts.ted_rejects;
      }
    }
  }
  std::sort(out.answer.begin(), out.answer.end(),
            [](const auto& a, const auto& b) {  // by (distance, id)
              return std::tie(std::get<2>(a), std::get<1>(a)) <
                     std::tie(std::get<2>(b), std::get<1>(b));
            });
  counts.results = static_cast<int64_t>(out.answer.size());
  return out;
}

ReplayOutcome ReplayJoin(const treesim::TreeDatabase& left, int tau,
                         const treesim::TreeDatabase& right,
                         treesim::BiBranchFilter& filter,
                         SpanRecorder& recorder, int root, int64_t op_id) {
  ReplayOutcome out;
  ReplayCounts& counts = out.counts;
  // The engine's sequential phase: every left tree is prepared, in order,
  // before any probe.
  std::vector<std::unique_ptr<FilterQueryContext>> contexts;
  {
    const ScopedSpan span(&recorder, "filters.prepare", root, op_id);
    for (int l = 0; l < left.size(); ++l) {
      contexts.push_back(filter.PrepareQuery(left.tree(l)));
    }
  }
  // The batch's TedTree views were built with its TreeDatabase, before the
  // operation, and the engine reuses them; so does the replay (no
  // "ted.view" span on joins).
  for (int l = 0; l < left.size(); ++l) {
    const std::vector<int> candidates =
        RangeCandidates(*contexts[static_cast<size_t>(l)], tau, right, filter,
                        counts, recorder, root, op_id);
    const ScopedSpan span(&recorder, "ted.refine", root, op_id);
    const TedCounterDelta delta(counts);
    for (const int r : candidates) {
      const int d = treesim::BoundedTreeEditDistance(left.ted_view(l),
                                                     right.ted_view(r), tau);
      ++counts.ted_calls;
      if (d <= tau) {
        out.answer.emplace_back(l, r, d);
      } else {
        ++counts.ted_rejects;
      }
    }
  }
  counts.results = static_cast<int64_t>(out.answer.size());
  return out;
}

}  // namespace

ReplayOutcome Replay(const WorkloadSpec& spec, const Ops& ops, int op,
                     const treesim::TreeDatabase& db,
                     treesim::BiBranchFilter& filter, SpanRecorder& recorder,
                     int root, int64_t op_id) {
  const int param = OpParam(spec, op);
  const size_t i = static_cast<size_t>(op);
  switch (spec.kind) {
    case OpKind::kKnn:
      return ReplayKnn(ops.queries[i], param, db, filter, recorder, root,
                       op_id);
    case OpKind::kRange:
      return ReplayRange(ops.queries[i], param, db, filter, recorder, root,
                         op_id);
    case OpKind::kJoin:
      return ReplayJoin(*ops.batches[i], param, db, filter, recorder, root,
                        op_id);
  }
  return {};
}

}  // namespace perfbench
