#ifndef TREESIM_SEARCH_SIMILARITY_JOIN_H_
#define TREESIM_SEARCH_SIMILARITY_JOIN_H_

#include <memory>
#include <tuple>
#include <vector>

#include "filters/filter_index.h"
#include "search/query_stats.h"
#include "search/tree_database.h"
#include "util/thread_pool.h"

namespace treesim {

/// Result of an approximate (similarity) join: all tree pairs within edit
/// distance tau, with the exact distance. Ascending by (left id, right id).
struct JoinResult {
  /// (left tree id, right tree id, exact distance).
  std::vector<std::tuple<int, int, int>> pairs;
  /// Aggregated over all probes; database_size counts candidate pairs.
  QueryStats stats;
};

/// The approximate-join operation from the paper's introduction ("these
/// problems form the core operation for many database manipulations (e.g.,
/// approximate join, ...)"), built on the filter-and-refine engine: the
/// filter indexes the right side once, every left tree probes it with a
/// range query. Surviving candidate pairs are verified with the
/// threshold-bounded distance (ted/bounded_ted.h) at the join's tau —
/// exact for every emitted pair, and provably "> tau" for every rejected
/// one, so the output is byte-identical to an unbounded refine.
class SimilarityJoin {
 public:
  /// Builds `filter` over `right` (nullptr = no filtering). Both databases
  /// must outlive this object and share a label dictionary.
  SimilarityJoin(const TreeDatabase* right,
                 std::unique_ptr<FilterIndex> filter);

  SimilarityJoin(const SimilarityJoin&) = delete;
  SimilarityJoin& operator=(const SimilarityJoin&) = delete;

  /// All (l, r) with EDist(left[l], right[r]) <= tau. The left side is
  /// processed in blocks of left trees, each in three steps:
  ///   1. filter: PrepareQuery for each left tree of the block, sequential
  ///      in left order (filters may extend shared dictionaries), then one
  ///      RangeCandidates pass per left tree, fanned out over `pool`, each
  ///      into its own slot;
  ///   2. the candidate sets are flattened into (l, r) pairs, ascending;
  ///   3. refine: one ParallelFor over those pairs, each bounded
  ///      verification into its own per-pair slot, merged in (l, r) order.
  /// Workers therefore balance on candidate pairs, not on left trees with
  /// uneven candidate counts, and `pairs` and every counting stat are
  /// identical to the sequential join (pool == nullptr) for any pool
  /// size; only the seconds shift. Must not be called from a worker of
  /// `pool`.
  JoinResult Join(const TreeDatabase& left, int tau,
                  ThreadPool* pool = nullptr);

  /// Self join of the right-side database: all unordered pairs l < r within
  /// tau (each pair probed once). Same parallel contract as Join().
  JoinResult SelfJoin(int tau, ThreadPool* pool = nullptr);

 private:
  JoinResult JoinImpl(const TreeDatabase& left, int tau, bool self,
                      ThreadPool* pool);

  /// Steps 1-3 of Join() for left trees [begin, end), appending pairs and
  /// stats to `result`.
  void JoinBlock(const TreeDatabase& left, int begin, int end, int tau,
                 bool self, ThreadPool* pool, JoinResult& result) const;

  const TreeDatabase* right_;
  std::unique_ptr<FilterIndex> filter_;
};

}  // namespace treesim

#endif  // TREESIM_SEARCH_SIMILARITY_JOIN_H_
