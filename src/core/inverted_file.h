#ifndef TREESIM_CORE_INVERTED_FILE_H_
#define TREESIM_CORE_INVERTED_FILE_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/binary_branch.h"
#include "core/branch_profile.h"
#include "tree/tree.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace treesim {

/// The extended inverted file IFI of Algorithm 1 (Fig. 3a): a vocabulary of
/// binary branches plus, per branch, an inverted list of
/// (tree id, occurrence count, positions). Vector representations of a whole
/// dataset are built by one scan of the IFI, exactly as Algorithm 1 does.
/// Construction is O(sum |Ti|) time and space (Section 4.4).
class InvertedFileIndex {
 public:
  /// One inverted-list element: all occurrences of the branch in one tree.
  struct Posting {
    int tree_id = 0;
    /// (preorder, postorder) positions, ascending by preorder.
    std::vector<std::pair<int, int>> positions;

    int count() const { return static_cast<int>(positions.size()); }
  };

  /// `q` is the branch level (2 = the binary branch of Definition 2).
  explicit InvertedFileIndex(int q) : dict_(q) {}

  InvertedFileIndex(const InvertedFileIndex&) = delete;
  InvertedFileIndex& operator=(const InvertedFileIndex&) = delete;
  InvertedFileIndex(InvertedFileIndex&&) = default;
  InvertedFileIndex& operator=(InvertedFileIndex&&) = default;

  /// Indexes one tree; returns its dense tree id (0, 1, 2, ...).
  int Add(const Tree& t);

  /// Indexes a whole forest, ids in input order. With a pool, branch-key
  /// extraction — the O(|Ti| * 2^q) part of Algorithm 1 — runs in parallel
  /// across trees; interning and inverted-list appends stay sequential in
  /// tree order, so BranchIds, postings and positions are byte-identical to
  /// calling Add() per tree. nullptr builds sequentially.
  void AddAll(const std::vector<Tree>& trees, ThreadPool* pool = nullptr);

  /// Number of indexed trees.
  int tree_count() const { return tree_count_; }

  /// The branch vocabulary (shared with query profile extraction so ids
  /// agree between database and query vectors).
  BranchDictionary& branch_dict() { return dict_; }
  const BranchDictionary& branch_dict() const { return dict_; }

  /// Inverted list of one branch, ordered by tree id. Empty for a branch
  /// no indexed tree contains, including the ids that query profiles
  /// intern into the shared dictionary after the index was built.
  const std::vector<Posting>& postings(BranchId branch) const;

  /// Materializes the sparse vector + positional sequences of every indexed
  /// tree by scanning the inverted lists (Algorithm 1, lines 6-13).
  /// Result is indexed by tree id; entries are sorted by branch id.
  std::vector<BranchProfile> BuildProfiles() const;

  /// Verifies the IFI invariants of Fig. 3a: inverted lists strictly
  /// ascending by tree id with positive counts, positions ascending by
  /// preorder and inside [1, |Ti|], and per-tree occurrence totals equal to
  /// the tree sizes (every node contributes exactly one branch). O(index
  /// size). Debug builds run this at the start of BuildProfiles().
  Status ValidateInvariants() const;

 private:
  friend struct InvariantTestPeer;  // tests corrupt lists to hit validators

  /// Shared tail of Add()/AddAll(): assigns the next tree id and appends
  /// `occurrences` (any order) to the inverted lists.
  int AddOccurrences(int tree_size, std::vector<BranchOccurrence> occurrences);

  BranchDictionary dict_;
  std::vector<std::vector<Posting>> lists_;  // indexed by BranchId
  std::vector<int> tree_sizes_;              // indexed by tree id
  int tree_count_ = 0;
};

}  // namespace treesim

#endif  // TREESIM_CORE_INVERTED_FILE_H_
