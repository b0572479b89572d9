#ifndef TREESIM_FILTERS_BIBRANCH_FILTER_H_
#define TREESIM_FILTERS_BIBRANCH_FILTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/inverted_file.h"
#include "core/positional.h"
#include "core/vptree.h"
#include "filters/filter_index.h"
#include "util/thread_pool.h"

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
    /// Index the branch vectors in a VP-tree (BDist satisfies the triangle
    /// inequality) so RangeCandidates takes its BDist gate from a metric
    /// ball instead of the posting-list pass. Identical results; pays
    /// O(N log N) BDist evaluations at Build().
    bool use_vptree = false;
    /// Pool Build() fans the inverted-file construction out over (borrowed;
    /// must outlive Build()). Index contents are byte-identical to a
    /// sequential build. nullptr builds sequentially.
    ThreadPool* build_pool = nullptr;
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
  /// those trees — read off the VP-tree ball when use_vptree is on, else
  /// from BDist = |Tq| + |Ti| - 2 * sum(min(count)) summed over the query's
  /// posting lists — and runs the positional test (RangeFilterPasses, size
  /// test first) only on those. The result equals the MayQualify scan; the
  /// checked/passed counters are published once per call with the scan's
  /// totals.
  std::vector<int> RangeCandidates(const FilterQueryContext& ctx,
                                   double tau) const override;

  /// The underlying inverted file (for inspection/examples).
  const InvertedFileIndex& inverted_file() const { return index_; }

  /// Database profiles, indexed by tree id (for inspection/tests).
  const std::vector<BranchProfile>& profiles() const { return profiles_; }

  /// Cumulative BDist evaluations spent inside VP-tree range searches
  /// (for benchmarking sublinearity; 0 when use_vptree is off).
  int64_t vptree_distance_calls() const {
    return vptree_distance_calls_.load(std::memory_order_relaxed);
  }

 private:
  /// Trees with BDist(query, tree) <= `radius`, ascending, from one pass
  /// over the query's posting lists.
  std::vector<int> PostingListGate(const BranchProfile& query,
                                   int64_t radius) const;

  Options options_;
  InvertedFileIndex index_;
  std::vector<BranchProfile> profiles_;
  std::unique_ptr<VpTree> vptree_;
  /// Probe accounting mutated from const query paths; atomic because range
  /// probes may run concurrently from the parallel search/join layers (the
  /// only shared mutable state a built filter owns — everything else is
  /// read-only after Build()).
  mutable std::atomic<int64_t> vptree_distance_calls_{0};
};

}  // namespace treesim

#endif  // TREESIM_FILTERS_BIBRANCH_FILTER_H_
