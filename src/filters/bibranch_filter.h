#ifndef TREESIM_FILTERS_BIBRANCH_FILTER_H_
#define TREESIM_FILTERS_BIBRANCH_FILTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/inverted_file.h"
#include "core/positional.h"
#include "filters/filter_index.h"

namespace treesim {

/// The paper's filter: q-level binary branch vectors with (optionally)
/// positional information. Lower bounds:
///   positional:  propt from the SearchLBound binary search (Section 4.2),
///                with the PosBDist(tau) single-shot test for range queries
///                (Section 4.3);
///   plain:       ceil(BDist / (4(q-1)+1)) (Theorem 3.2/3.3).
class BiBranchFilter final : public FilterIndex {
 public:
  struct Options {
    /// Branch level; 2 is the binary branch of Definition 2.
    int q = 2;
    /// Use positional binary branches (the paper's full method). When
    /// false, only the occurrence counts are compared (plain BDist).
    bool positional = true;
    /// How per-branch positional matchings are computed; see MatchingMode.
    MatchingMode matching = MatchingMode::kAuto;
  };

  /// Default options: q = 2, positional.
  BiBranchFilter();
  explicit BiBranchFilter(Options options);

  std::string name() const override;
  void Build(const std::vector<Tree>& trees) override;
  int tree_count() const override {
    return static_cast<int>(profiles_.size());
  }
  std::unique_ptr<FilterQueryContext> PrepareQuery(const Tree& query) override;
  double LowerBound(const FilterQueryContext& ctx, int tree_id) const override;
  bool MayQualify(const FilterQueryContext& ctx, int tree_id,
                  double tau) const override;

  /// One pass instead of a MayQualify probe per tree. Every tree that can
  /// qualify has BDist <= factor * tau (PosBDist(pr) >= BDist for every
  /// pr, and Theorem 3.2/3.3 for the plain filter), so the pass first keeps
  /// those trees — BDist = |Tq| + |Ti| - 2 * sum(min(count)), summed over
  /// the query's posting lists — and runs the positional test
  /// (RangeFilterPasses, size test first) only on those. The result equals
  /// the MayQualify scan; the checked/passed counters are published once
  /// per call with the scan's totals.
  std::vector<int> RangeCandidates(const FilterQueryContext& ctx,
                                   double tau) const override;

  /// The underlying inverted file (for inspection/examples).
  const InvertedFileIndex& inverted_file() const { return index_; }

  /// Database profiles, indexed by tree id (for inspection/tests).
  const std::vector<BranchProfile>& profiles() const { return profiles_; }

 private:
  /// Trees with BDist(query, tree) <= `radius`, ascending, from one pass
  /// over the query's posting lists.
  std::vector<int> PostingListGate(const BranchProfile& query,
                                   int64_t radius) const;

  Options options_;
  InvertedFileIndex index_;
  std::vector<BranchProfile> profiles_;
};

}  // namespace treesim

#endif  // TREESIM_FILTERS_BIBRANCH_FILTER_H_
