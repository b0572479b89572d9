#include "core/vptree.h"

#include <algorithm>
#include <memory>

#include "gtest/gtest.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "search/similarity_search.h"
#include "test_util.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

std::vector<BranchProfile> ProfilesOf(const std::vector<Tree>& trees,
                                      BranchDictionary& dict) {
  std::vector<BranchProfile> out;
  out.reserve(trees.size());
  for (const Tree& t : trees) out.push_back(BranchProfile::FromTree(t, dict));
  return out;
}

std::vector<int> BruteForceBall(const std::vector<BranchProfile>& profiles,
                                const BranchProfile& query, int64_t radius) {
  std::vector<int> out;
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (BranchDistance(query, profiles[i]) <= radius) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

TEST(VpTreeTest, EmptyAndSingleton) {
  std::vector<BranchProfile> profiles;
  Rng rng(1);
  VpTree empty(&profiles, rng);
  auto dict = std::make_shared<LabelDictionary>();
  BranchDictionary branches(2);
  const BranchProfile q =
      BranchProfile::FromTree(MakeTree("a", dict), branches);
  EXPECT_TRUE(empty.RangeSearch(q, 100).empty());

  profiles.push_back(q);
  Rng rng2(1);
  VpTree single(&profiles, rng2);
  EXPECT_EQ(single.RangeSearch(q, 0), std::vector<int>{0});
  EXPECT_TRUE(single.RangeSearch(q, -1).empty());
}

TEST(VpTreeTest, MatchesBruteForceOnRandomTrees) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 4);
  Rng rng(1301);
  BranchDictionary branches(2);
  std::vector<Tree> trees;
  for (int i = 0; i < 120; ++i) {
    trees.push_back(RandomTree(rng.UniformInt(1, 30), pool, dict, rng));
  }
  const std::vector<BranchProfile> profiles = ProfilesOf(trees, branches);
  Rng tree_rng(7);
  const VpTree index(&profiles, tree_rng);
  for (int qi = 0; qi < 15; ++qi) {
    const BranchProfile& query = profiles[static_cast<size_t>(qi * 8)];
    for (const int64_t radius : {0, 5, 15, 40, 200}) {
      EXPECT_EQ(index.RangeSearch(query, radius),
                BruteForceBall(profiles, query, radius))
          << "query " << qi << " radius " << radius;
    }
  }
}

TEST(VpTreeTest, ExternalQueryNotInIndex) {
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 3);
  Rng rng(1303);
  BranchDictionary branches(2);
  std::vector<Tree> trees;
  for (int i = 0; i < 60; ++i) {
    trees.push_back(RandomTree(rng.UniformInt(1, 20), pool, dict, rng));
  }
  const std::vector<BranchProfile> profiles = ProfilesOf(trees, branches);
  Rng tree_rng(9);
  const VpTree index(&profiles, tree_rng);
  Tree query_tree = RandomTree(15, pool, dict, rng);
  const BranchProfile query = BranchProfile::FromTree(query_tree, branches);
  for (const int64_t radius : {3, 20, 80}) {
    EXPECT_EQ(index.RangeSearch(query, radius),
              BruteForceBall(profiles, query, radius));
  }
}

TEST(VpTreeTest, HandlesDistanceZeroDuplicates) {
  // BDist is a pseudo-metric: the Fig. 4 pair and exact duplicates all sit
  // at distance 0 and must all be retrieved.
  auto dict = std::make_shared<LabelDictionary>();
  BranchDictionary branches(2);
  std::vector<Tree> trees;
  for (int i = 0; i < 10; ++i) trees.push_back(MakeTree("r{a{b} b{a}}", dict));
  trees.push_back(MakeTree("r{a{b{a}} b}", dict));  // BDist 0 from the above
  trees.push_back(MakeTree("x{y z}", dict));
  const std::vector<BranchProfile> profiles = ProfilesOf(trees, branches);
  Rng rng(3);
  const VpTree index(&profiles, rng);
  const std::vector<int> hits = index.RangeSearch(profiles[0], 0);
  EXPECT_EQ(hits.size(), 11u);  // 10 duplicates + the Fig. 4 twin
}

TEST(VpTreeTest, SublinearOnSpreadOutData) {
  // Metric indexing pays off when pairwise distances are spread out (here:
  // tree sizes from 5 to 150, so BDist spans a wide range). On
  // concentrated-distance data it degenerates toward a linear scan — the
  // intrinsic-dimensionality effect of Chavez & Navarro (the paper's [2]);
  // see the companion NearLinearOnConcentratedData test.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 6);
  Rng rng(1307);
  BranchDictionary branches(2);
  std::vector<Tree> trees;
  for (int i = 0; i < 600; ++i) {
    trees.push_back(RandomTree(5 + rng.UniformInt(0, 145), pool, dict, rng));
  }
  const std::vector<BranchProfile> profiles = ProfilesOf(trees, branches);
  Rng tree_rng(11);
  const VpTree index(&profiles, tree_rng);
  EXPECT_GT(index.Depth(), 3);

  int64_t total_calls = 0;
  for (int qi = 0; qi < 10; ++qi) {
    int64_t calls = 0;
    const BranchProfile& query = profiles[static_cast<size_t>(qi * 37)];
    const std::vector<int> hits = index.RangeSearch(query, 10, &calls);
    EXPECT_EQ(hits, BruteForceBall(profiles, query, 10));
    total_calls += calls;
  }
  // Far fewer distance evaluations than 10 linear scans (10 * 600).
  EXPECT_LT(total_calls, 10 * 600 / 2);
}

TEST(VpTreeTest, NearLinearOnConcentratedData) {
  // Equal-size random trees concentrate BDist around |T1|+|T2| minus a
  // small overlap; shell pruning then rarely applies. Documented honest
  // behavior: correctness holds, sublinearity does not.
  auto dict = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = MakeLabelPool(dict, 8);
  Rng rng(1311);
  BranchDictionary branches(2);
  std::vector<Tree> trees;
  for (int i = 0; i < 200; ++i) {
    trees.push_back(RandomTree(30, pool, dict, rng));
  }
  const std::vector<BranchProfile> profiles = ProfilesOf(trees, branches);
  Rng tree_rng(13);
  const VpTree index(&profiles, tree_rng);
  int64_t calls = 0;
  const std::vector<int> hits = index.RangeSearch(profiles[0], 10, &calls);
  EXPECT_EQ(hits, BruteForceBall(profiles, profiles[0], 10));
  EXPECT_GT(calls, 100);  // most of the 200 vectors are still touched
}

TEST(VpTreeFilterIntegrationTest, VpTreeRangeResultsMatchLinearFilter) {
  auto dict = std::make_shared<LabelDictionary>();
  SyntheticParams params;
  params.size_mean = 20;
  params.label_count = 6;
  SyntheticGenerator gen(params, dict, 1309);
  auto db = std::make_unique<TreeDatabase>(dict);
  for (Tree& t : gen.GenerateDataset(80)) db->Add(std::move(t));

  for (const bool positional : {true, false}) {
    BiBranchFilter::Options linear_opts;
    linear_opts.positional = positional;
    BiBranchFilter::Options vp_opts = linear_opts;
    vp_opts.use_vptree = true;
    SimilaritySearch linear(db.get(),
                            std::make_unique<BiBranchFilter>(linear_opts));
    SimilaritySearch vp(db.get(), std::make_unique<BiBranchFilter>(vp_opts));
    for (int qi = 0; qi < 8; ++qi) {
      const Tree& query = db->tree(qi * 9);
      for (const int tau : {0, 2, 5}) {
        const RangeResult a = linear.Range(query, tau);
        const RangeResult b = vp.Range(query, tau);
        EXPECT_EQ(a.matches, b.matches)
            << "positional=" << positional << " tau=" << tau;
        // Identical candidate sets (the contract of RangeCandidates).
        EXPECT_EQ(a.stats.candidates, b.stats.candidates);
      }
    }
  }
}

}  // namespace
}  // namespace treesim
