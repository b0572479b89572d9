// RangeCandidates is where range queries and joins get their candidate
// sets, so it must return exactly the ids a per-tree MayQualify scan keeps,
// although the BiBranch filter computes them differently: one pass over the
// query's posting lists, then the positional test on what BDist keeps.
#include <memory>
#include <string>
#include <vector>

#include "datagen/dblp_generator.h"
#include "datagen/edit_noise.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/random.h"

namespace treesim {
namespace {

using testing::MakeTree;

struct Corpus {
  std::string name;
  std::shared_ptr<LabelDictionary> labels;
  std::vector<Tree> trees;
  std::vector<Tree> queries;
};

/// Queries derived from corpus trees by 0-3 random edits. The edit labels
/// include two the corpus never uses, so edited queries contain branches
/// that have no postings; the last query consists only of such labels.
void AddQueries(Corpus& corpus, uint64_t seed) {
  std::vector<LabelId> label_pool;
  for (LabelId id = 1; id < corpus.labels->id_bound(); ++id) {
    label_pool.push_back(id);
  }
  label_pool.push_back(corpus.labels->Intern("query_only_a"));
  label_pool.push_back(corpus.labels->Intern("query_only_b"));
  Rng rng(seed);
  const size_t n = corpus.trees.size();
  for (int i = 0; i < 7; ++i) {
    const Tree& base = corpus.trees[static_cast<size_t>(i * 37) % n];
    corpus.queries.push_back(
        ApplyRandomEdits(base, i % 4, label_pool, rng).tree);
  }
  corpus.queries.push_back(
      MakeTree("query_only_a{query_only_b query_only_a{query_only_b}}",
               corpus.labels));
}

Corpus DblpCorpus() {
  Corpus corpus{"dblp", std::make_shared<LabelDictionary>(), {}, {}};
  DblpGenerator gen(DblpParams(), corpus.labels, 71);
  corpus.trees = gen.Generate(250);
  AddQueries(corpus, 73);
  return corpus;
}

Corpus SyntheticCorpus() {
  Corpus corpus{"synthetic", std::make_shared<LabelDictionary>(), {}, {}};
  SyntheticParams params;
  params.size_mean = 20;
  params.label_count = 8;
  SyntheticGenerator gen(params, corpus.labels, 79);
  corpus.trees = gen.GenerateDataset(200);
  AddQueries(corpus, 83);
  return corpus;
}

/// BDist is a pseudo-metric: the Fig. 4 pair has identical branch multisets
/// (BDist 0, TED > 0) and exact duplicates sit at BDist 0 too, so the
/// posting-list gate must keep all of them at tau 0.
Corpus TwinCorpus() {
  Corpus corpus{"twin", std::make_shared<LabelDictionary>(), {}, {}};
  for (int i = 0; i < 10; ++i) {
    corpus.trees.push_back(MakeTree("r{a{b} b{a}}", corpus.labels));
  }
  corpus.trees.push_back(MakeTree("r{a{b{a}} b}", corpus.labels));
  corpus.trees.push_back(MakeTree("x{y z}", corpus.labels));
  corpus.queries.push_back(corpus.trees.front());
  corpus.queries.push_back(corpus.trees[10]);
  AddQueries(corpus, 89);
  return corpus;
}

std::vector<int> MayQualifyScan(const BiBranchFilter& filter,
                                const FilterQueryContext& ctx, double tau) {
  std::vector<int> ids;
  for (int id = 0; id < filter.tree_count(); ++id) {
    if (filter.MayQualify(ctx, id, tau)) ids.push_back(id);
  }
  return ids;
}

TEST(RangeCandidatesTest, EqualsMayQualifyScan) {
  for (const Corpus& corpus : {DblpCorpus(), SyntheticCorpus(), TwinCorpus()}) {
    for (const int q : {2, 3}) {
      for (const bool positional : {true, false}) {
        BiBranchFilter::Options options;
        options.q = q;
        options.positional = positional;
        BiBranchFilter filter(options);
        filter.Build(corpus.trees);
        const size_t indexed_branches =
            filter.inverted_file().branch_dict().size();
        int nonempty = 0;
        for (size_t qi = 0; qi < corpus.queries.size(); ++qi) {
          const Tree& query = corpus.queries[qi];
          const std::unique_ptr<FilterQueryContext> ctx =
              filter.PrepareQuery(query);
          for (const double tau : {-1.0, 0.0, 1.0, 2.0, 2.5, 4.0, 6.0, 10.0,
                                   static_cast<double>(query.size())}) {
            const std::vector<int> batch = filter.RangeCandidates(*ctx, tau);
            EXPECT_EQ(batch, MayQualifyScan(filter, *ctx, tau))
                << corpus.name << " q=" << q << " positional=" << positional
                << " query=" << qi << " tau=" << tau;
            if (!batch.empty()) ++nonempty;
          }
        }
        // The queries interned branches the index has no postings for.
        EXPECT_GT(filter.inverted_file().branch_dict().size(),
                  indexed_branches);
        EXPECT_GT(nonempty, 0) << corpus.name;
      }
    }
  }
}

TEST(RangeCandidatesTest, KeepsEveryBDistZeroTreeAtTauZero) {
  // The plain filter at q = 2 keeps exactly the trees at BDist 0: the ten
  // duplicates and the Fig. 4 twin, never the unrelated tree.
  const Corpus corpus = TwinCorpus();
  BiBranchFilter::Options options;
  options.positional = false;
  BiBranchFilter filter(options);
  filter.Build(corpus.trees);
  const std::vector<int> all_twins = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (const int qi : {0, 1}) {
    const std::unique_ptr<FilterQueryContext> ctx =
        filter.PrepareQuery(corpus.queries[static_cast<size_t>(qi)]);
    EXPECT_EQ(filter.RangeCandidates(*ctx, 0.0), all_twins) << "query=" << qi;
  }
}

TEST(RangeCandidatesTest, PublishesTheScanCounterTotals) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  const Counter& checked =
      MetricsRegistry::Global().GetCounter("filter.bibranch.checked");
  const Counter& passed =
      MetricsRegistry::Global().GetCounter("filter.bibranch.passed");
  const Corpus corpus = SyntheticCorpus();
  for (const bool positional : {true, false}) {
    BiBranchFilter::Options options;
    options.positional = positional;
    BiBranchFilter filter(options);
    filter.Build(corpus.trees);
    for (const Tree& query : corpus.queries) {
      const std::unique_ptr<FilterQueryContext> ctx =
          filter.PrepareQuery(query);
      for (const double tau : {-1.0, 0.0, 3.0, 10.0}) {
        const int64_t checked_before = checked.value();
        const int64_t passed_before = passed.value();
        const std::vector<int> scan = MayQualifyScan(filter, *ctx, tau);
        const int64_t scan_checked = checked.value() - checked_before;
        const int64_t scan_passed = passed.value() - passed_before;
        EXPECT_EQ(scan_checked, filter.tree_count());
        EXPECT_EQ(scan_passed, static_cast<int64_t>(scan.size()));

        const int64_t batch_checked_before = checked.value();
        const int64_t batch_passed_before = passed.value();
        filter.RangeCandidates(*ctx, tau);
        EXPECT_EQ(checked.value() - batch_checked_before, scan_checked)
            << "positional=" << positional << " tau=" << tau;
        EXPECT_EQ(passed.value() - batch_passed_before, scan_passed)
            << "positional=" << positional << " tau=" << tau;
      }
    }
  }
}

}  // namespace
}  // namespace treesim
