#include "filters/bibranch_filter.h"

#include <algorithm>
#include <utility>

#include "filters/filter_index.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"
#include "util/trace.h"

namespace treesim {
namespace {

class BiBranchQueryContext final : public FilterQueryContext {
 public:
  explicit BiBranchQueryContext(BranchProfile profile)
      : profile_(std::move(profile)) {}
  const BranchProfile& profile() const { return profile_; }

 private:
  BranchProfile profile_;
};

}  // namespace

BiBranchFilter::BiBranchFilter() : BiBranchFilter(Options()) {}

BiBranchFilter::BiBranchFilter(Options options)
    : options_(options), index_(options.q) {}

std::string BiBranchFilter::name() const {
  std::string n = "BiBranch(" + std::to_string(options_.q) + ")";
  if (!options_.positional) n += "-plain";
  return n;
}

void BiBranchFilter::Build(const std::vector<Tree>& trees) {
  TREESIM_TRACE_SPAN("filter.bibranch.build");
  TREESIM_CHECK(profiles_.empty()) << "Build() called twice";
  index_.AddAll(trees);
  profiles_ = index_.BuildProfiles();
}

std::unique_ptr<FilterQueryContext> TREESIM_HOT BiBranchFilter::PrepareQuery(
    const Tree& query) {
  return std::make_unique<BiBranchQueryContext>(
      BranchProfile::FromTree(query, index_.branch_dict()));
}

double TREESIM_HOT BiBranchFilter::LowerBound(const FilterQueryContext& ctx,
                                              int tree_id) const {
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const BranchProfile& data = profiles_[static_cast<size_t>(tree_id)];
  if (options_.positional) {
    return OptimisticBound(q.profile(), data, options_.matching);
  }
  return BranchDistanceLowerBound(q.profile(), data);
}

std::vector<int> TREESIM_HOT BiBranchFilter::PostingListGate(
    const BranchProfile& query, int64_t radius) const {
  // shared[i] = sum over the query's branches of min(count in query, count
  // in tree i): the overlap of the two branch multisets. Trees sharing no
  // branch with the query are never touched and keep 0.
  std::vector<int> shared(profiles_.size(), 0);
  int64_t touched = 0;
  for (const BranchEntry& entry : query.entries) {
    const std::vector<InvertedFileIndex::Posting>& list =
        index_.postings(entry.branch);
    touched = CheckedAdd(touched, static_cast<int64_t>(list.size()));
    for (const InvertedFileIndex::Posting& posting : list) {
      int& overlap = shared[static_cast<size_t>(posting.tree_id)];
      overlap = CheckedAdd(overlap, std::min(entry.count(), posting.count()));
    }
  }
  TREESIM_COUNTER_ADD("filter.bibranch.postings_touched", touched);
  // Each tree's branch counts sum to its size (one branch per node), so
  // the L1 distance of the two vectors is |Tq| + |Ti| - 2 * overlap.
  std::vector<int> gated;
  gated.reserve(profiles_.size());
  for (size_t id = 0; id < profiles_.size(); ++id) {
    const int64_t bdist = CheckedSub(
        CheckedAdd<int64_t>(query.tree_size, profiles_[id].tree_size),
        CheckedMul<int64_t>(2, shared[id]));
    if (bdist <= radius) gated.push_back(static_cast<int>(id));
  }
  return gated;
}

std::vector<int> TREESIM_HOT BiBranchFilter::RangeCandidates(
    const FilterQueryContext& ctx, double tau) const {
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const int itau = IntegralTau(tau);
  std::vector<int> candidates;
  if (itau >= 0) {
    const int64_t radius =
        CheckedMul<int64_t>(index_.branch_dict().edit_distance_factor(), itau);
    std::vector<int> gated = PostingListGate(q.profile(), radius);
    TREESIM_COUNTER_ADD("filter.bibranch.bdist_candidates",
                        static_cast<int64_t>(gated.size()));
    if (options_.positional) {
      candidates.reserve(gated.size());
      for (const int id : gated) {
        if (RangeFilterPasses(q.profile(), profiles_[static_cast<size_t>(id)],
                              itau, options_.matching)) {
          candidates.push_back(id);
        }
      }
    } else {
      candidates = std::move(gated);
    }
  }
  TREESIM_COUNTER_ADD("filter.bibranch.checked",
                      static_cast<int64_t>(profiles_.size()));
  TREESIM_COUNTER_ADD("filter.bibranch.passed",
                      static_cast<int64_t>(candidates.size()));
  return candidates;
}

bool TREESIM_HOT BiBranchFilter::MayQualify(const FilterQueryContext& ctx,
                                            int tree_id, double tau) const {
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const BranchProfile& data = profiles_[static_cast<size_t>(tree_id)];
  const int itau = IntegralTau(tau);
  TREESIM_COUNTER_INC("filter.bibranch.checked");
  bool pass;
  if (options_.positional) {
    pass = RangeFilterPasses(q.profile(), data, itau, options_.matching);
  } else {
    pass = BranchDistanceLowerBound(q.profile(), data) <= itau;
  }
  if (pass) TREESIM_COUNTER_INC("filter.bibranch.passed");
  return pass;
}

}  // namespace treesim
