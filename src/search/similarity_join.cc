#include "search/similarity_join.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "filters/filter_index.h"
#include "search/query_scope.h"
#include "ted/bounded_ted.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace treesim {
namespace {

/// Left trees whose candidate pairs are held at once. A join without a
/// filter makes every pair a candidate, so this bounds the working set to
/// kLeftBlock * |right| pairs, while a block still spreads enough pairs
/// over any pool for the workers to balance.
constexpr int kLeftBlock = 64;

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
  static const QueryOp& op = *new QueryOp("join", "joins");
  JoinResult result;
  QueryScope scope(op, result.stats, filter_.get());
  scope.set_event(self ? "self_join" : "join");
  scope.Param("tau", tau);
  scope.Field("left_size", left.size());
  for (int begin = 0; begin < left.size(); begin += kLeftBlock) {
    JoinBlock(left, begin, std::min(left.size(), begin + kLeftBlock), tau,
              self, pool, result);
  }
  result.stats.results = static_cast<int64_t>(result.pairs.size());
  TREESIM_COUNTER_ADD("search.join.pairs_considered",
                      result.stats.database_size);
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
