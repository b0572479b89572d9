#include "core/inverted_file.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/safe_math.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace treesim {

int InvertedFileIndex::Add(const Tree& t) {
  // Traverse(), insertPreOrder()/insertPostOrder() of Algorithm 1: one pass
  // produces every branch occurrence with both positions; appending at the
  // tail of the inverted list keeps each update O(1).
  return AddOccurrences(t.size(), ExtractBranches(t, dict_));
}

int InvertedFileIndex::AddOccurrences(
    int tree_size, std::vector<BranchOccurrence> occurrences) {
  TREESIM_COUNTER_INC("index.trees_added");
  TREESIM_COUNTER_ADD("index.branch_occurrences",
                      static_cast<int64_t>(occurrences.size()));
  const int tree_id = tree_count_++;
  tree_sizes_.push_back(tree_size);
  if (lists_.size() < dict_.size()) lists_.resize(dict_.size());
  std::sort(occurrences.begin(), occurrences.end(),
            [](const BranchOccurrence& x, const BranchOccurrence& y) {
              if (x.branch != y.branch) return x.branch < y.branch;
              return x.pre < y.pre;
            });
  for (const BranchOccurrence& occ : occurrences) {
    std::vector<Posting>& list = lists_[static_cast<size_t>(occ.branch)];
    if (list.empty() || list.back().tree_id != tree_id) {
      list.push_back(Posting{tree_id, {}});
    }
    list.back().positions.emplace_back(occ.pre, occ.post);
  }
  TREESIM_GAUGE_SET("index.distinct_branches",
                    static_cast<int64_t>(dict_.size()));
  return tree_id;
}

void InvertedFileIndex::AddAll(const std::vector<Tree>& trees,
                               ThreadPool* pool) {
  if (pool == nullptr || pool->size() <= 1 || trees.size() < 2) {
    for (const Tree& t : trees) Add(t);
    return;
  }
  // Parallel phase: per-tree branch-key extraction into disjoint slots —
  // the traversal-heavy part of Algorithm 1, touching only the input tree.
  std::vector<std::vector<KeyedBranchOccurrence>> extracted(trees.size());
  const int q = dict_.q();
  pool->ParallelFor(static_cast<int64_t>(trees.size()), [&](int64_t i) {
    extracted[static_cast<size_t>(i)] =
        ExtractBranchKeys(trees[static_cast<size_t>(i)], q);
  });
  // Sequential phase, in tree order: interning assigns BranchIds in exactly
  // the order the per-tree Add() path would (preorder within each tree), so
  // the resulting dictionary and postings are byte-identical to a
  // sequential build — determinism the tests pin down.
  std::vector<BranchOccurrence> occurrences;
  for (size_t i = 0; i < trees.size(); ++i) {
    occurrences.clear();
    occurrences.reserve(extracted[i].size());
    for (const KeyedBranchOccurrence& occ : extracted[i]) {
      occurrences.push_back(
          BranchOccurrence{dict_.Intern(occ.key), occ.pre, occ.post});
    }
    AddOccurrences(trees[i].size(), std::move(occurrences));
    extracted[i].clear();  // free the keys as we go
  }
}

const std::vector<InvertedFileIndex::Posting>& InvertedFileIndex::postings(
    BranchId branch) const {
  static const std::vector<Posting> kNoPostings;
  if (static_cast<size_t>(branch) >= lists_.size()) return kNoPostings;
  return lists_[static_cast<size_t>(branch)];
}

Status InvertedFileIndex::ValidateInvariants() const {
  if (tree_count_ < 0) return Status::Internal("negative tree count");
  if (tree_sizes_.size() != static_cast<size_t>(tree_count_)) {
    return Status::Internal("tree_sizes out of step with tree count");
  }
  if (lists_.size() > dict_.size()) {
    return Status::Internal("more inverted lists than interned branches");
  }
  std::vector<int64_t> occurrences_per_tree(static_cast<size_t>(tree_count_),
                                            0);
  for (size_t branch = 0; branch < lists_.size(); ++branch) {
    const std::vector<Posting>& list = lists_[branch];
    for (size_t p = 0; p < list.size(); ++p) {
      const Posting& posting = list[p];
      if (posting.tree_id < 0 || posting.tree_id >= tree_count_) {
        return Status::Internal("posting names unknown tree " +
                                std::to_string(posting.tree_id));
      }
      if (p > 0 && list[p - 1].tree_id >= posting.tree_id) {
        return Status::Internal("postings not strictly ascending by tree id "
                                "for branch " + std::to_string(branch));
      }
      if (posting.positions.empty()) {
        return Status::Internal("empty posting for branch " +
                                std::to_string(branch));
      }
      const int tree_size = tree_sizes_[static_cast<size_t>(posting.tree_id)];
      for (size_t o = 0; o < posting.positions.size(); ++o) {
        const auto& [pre, post] = posting.positions[o];
        if (pre < 1 || pre > tree_size || post < 1 || post > tree_size) {
          return Status::Internal("position outside [1, |T|] in tree " +
                                  std::to_string(posting.tree_id));
        }
        if (o > 0 && posting.positions[o - 1].first >= pre) {
          return Status::Internal("positions not ascending by preorder in "
                                  "tree " + std::to_string(posting.tree_id));
        }
      }
      int64_t& tree_total =
          occurrences_per_tree[static_cast<size_t>(posting.tree_id)];
      tree_total = CheckedAdd<int64_t>(tree_total, posting.count());
    }
  }
  // Every node of every indexed tree roots exactly one branch, so the
  // per-tree totals across all lists must equal the tree sizes.
  for (int t = 0; t < tree_count_; ++t) {
    if (occurrences_per_tree[static_cast<size_t>(t)] !=
        tree_sizes_[static_cast<size_t>(t)]) {
      return Status::Internal("occurrence total of tree " + std::to_string(t) +
                              " does not match its size");
    }
  }
  return Status::Ok();
}

std::vector<BranchProfile> InvertedFileIndex::BuildProfiles() const {
  TREESIM_TRACE_SPAN("index.build_profiles");
  TREESIM_DCHECK_OK(ValidateInvariants());
  // Inverted-list skew is what decides whether the Section 5 candidate
  // counts stay small, so the length distribution lands in the registry.
  for (const std::vector<Posting>& list : lists_) {
    TREESIM_HISTOGRAM_RECORD("index.inverted_list_length", CountBuckets(),
                             static_cast<int64_t>(list.size()));
  }
  std::vector<BranchProfile> profiles(static_cast<size_t>(tree_count_));
  for (int i = 0; i < tree_count_; ++i) {
    BranchProfile& p = profiles[static_cast<size_t>(i)];
    p.tree_size = tree_sizes_[static_cast<size_t>(i)];
    p.q = dict_.q();
    p.factor = dict_.edit_distance_factor();
  }
  // One scan of the IFI; branch ids ascend, so each profile's entries come
  // out sorted by branch id (Algorithm 1, lines 6-13).
  for (size_t branch = 0; branch < lists_.size(); ++branch) {
    for (const Posting& posting : lists_[branch]) {
      BranchProfile& p = profiles[static_cast<size_t>(posting.tree_id)];
      BranchEntry entry;
      entry.branch = static_cast<BranchId>(branch);
      entry.occurrences = posting.positions;
      entry.posts_sorted.reserve(posting.positions.size());
      for (const auto& [pre, post] : posting.positions) {
        entry.posts_sorted.push_back(post);
      }
      std::sort(entry.posts_sorted.begin(), entry.posts_sorted.end());
      p.entries.push_back(std::move(entry));
    }
  }
#ifndef NDEBUG
  for (const BranchProfile& p : profiles) {
    TREESIM_DCHECK_OK(p.ValidateInvariants());
  }
#endif
  return profiles;
}

}  // namespace treesim
