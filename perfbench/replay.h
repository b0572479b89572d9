#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "filters/bibranch_filter.h"
#include "search/tree_database.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// Exact work of one replayed operation. The cell, early-exit and
/// SearchLBound figures are deltas of the library's registry counters
/// (ted.bounded_*, positional.searchlbound_calls) across the replay's
/// refine and bound loops.
struct ReplayCounts {
  int64_t bound_calls = 0;  // LowerBound / MayQualify calls
  int64_t ted_calls = 0;    // BoundedTreeEditDistance calls
  int64_t ted_rejects = 0;  // calls that returned "> threshold"
  int64_t results = 0;
  int64_t cells_computed = 0;
  int64_t cells_band_pruned = 0;
  int64_t early_exits = 0;
  int64_t searchlbound_calls = 0;
};

struct ReplayOutcome {
  Answer answer;
  ReplayCounts counts;
};

/// Replays distinct operation `op` through the layers' public functions, in
/// the engine's order: FilterIndex::PrepareQuery; LowerBound (k-NN) or
/// MayQualify (range, join) over every database tree; TedTree::FromTree on
/// the query (search only: a join batch's views are built with its
/// TreeDatabase, before the operation); BoundedTreeEditDistance on the
/// survivors at the engine's threshold (tau, or the running k-th best of
/// Algorithm 2). Each call or
/// loop of calls is a span under `root`, tagged `op_id`. `filter` must be
/// a BiBranchFilter built over `db`'s trees, like the engine's.
ReplayOutcome Replay(const WorkloadSpec& spec, const Ops& ops, int op,
                     const treesim::TreeDatabase& db,
                     treesim::BiBranchFilter& filter, SpanRecorder& recorder,
                     int root, int64_t op_id);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
