#ifndef TREESIM_FILTERS_FILTER_INDEX_H_
#define TREESIM_FILTERS_FILTER_INDEX_H_

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "tree/tree.h"

namespace treesim {

/// The integer threshold a unit-cost filter tests against: unit-cost
/// distances are integral, so testing at floor(tau) is exact. Negative and
/// NaN thresholds admit nothing (-1); huge ones and +inf saturate at
/// INT_MAX, where a plain cast would be undefined.
inline int IntegralTau(double tau) {
  if (!(tau >= 0)) return -1;
  if (tau >= std::numeric_limits<int>::max()) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(std::floor(tau));
}

/// Query-side state a FilterIndex derives once per query tree (e.g. the
/// query's branch profile) and reuses against every database tree.
class FilterQueryContext {
 public:
  virtual ~FilterQueryContext() = default;
};

/// A lower-bounding filter over a fixed database of trees, pluggable into
/// the filter-and-refine engine (Section 4.1). Implementations must be
/// SOUND: LowerBound() never exceeds the exact tree edit distance, so the
/// engine reports no false negatives.
///
/// The refine stage these bounds gate is itself threshold-bounded
/// (ted/bounded_ted.h): the engine hands the verifier the same tau (or
/// current kth-best distance) the filter pruned against, and the verifier
/// only promises exactness up to that threshold. A sound bound therefore
/// stays sufficient — every surviving candidate is verified exactly within
/// the threshold — but an UNSOUND bound would now fail in two places
/// instead of one (wrongly pruned AND wrongly clamped).
class FilterIndex {
 public:
  virtual ~FilterIndex() = default;

  /// Short name for reports ("BiBranch", "Histo", ...).
  virtual std::string name() const = 0;

  /// Indexes the database. Called once, before any query.
  virtual void Build(const std::vector<Tree>& trees) = 0;

  /// Derives the per-query state. Non-const: filters may extend shared
  /// dictionaries with branches/labels first seen in the query.
  virtual std::unique_ptr<FilterQueryContext> PrepareQuery(const Tree& query) = 0;

  /// A lower bound of EDist(query, tree `tree_id`).
  virtual double LowerBound(const FilterQueryContext& ctx, int tree_id) const = 0;

  /// Number of indexed trees (ids are 0 .. tree_count() - 1).
  virtual int tree_count() const = 0;

  /// Range-query test: false when the tree is certainly farther than `tau`.
  /// Default uses LowerBound(); overridden where a cheaper tau-specific test
  /// exists (the positional BiBranch filter, Section 4.3).
  virtual bool MayQualify(const FilterQueryContext& ctx, int tree_id,
                          double tau) const {
    return LowerBound(ctx, tree_id) <= tau;
  }

  /// The range-query candidate set: exactly { id : MayQualify(ctx, id, tau) },
  /// ascending. Range queries and joins take their candidates only from
  /// here. The default probes MayQualify once per tree; filters override it
  /// when they can produce the same set without a per-tree probe (the
  /// BiBranch filter reads BDist off its posting lists and runs the
  /// positional test only on what that keeps). Candidates are
  /// refined with the exact distance either way, so soundness is about
  /// completeness of this set. Const and safe to call concurrently.
  virtual std::vector<int> RangeCandidates(const FilterQueryContext& ctx,
                                           double tau) const {
    std::vector<int> candidates;
    candidates.reserve(static_cast<size_t>(tree_count()));
    for (int id = 0; id < tree_count(); ++id) {
      if (MayQualify(ctx, id, tau)) candidates.push_back(id);
    }
    return candidates;
  }
};

}  // namespace treesim

#endif  // TREESIM_FILTERS_FILTER_INDEX_H_
