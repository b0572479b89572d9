// Microbenchmark behind the paper's motivation (Sections 1 and 5): the
// exact tree edit distance costs O(|T1||T2| * kr^2) while the binary branch
// lower bound costs O(|T1| + |T2|) — the gap that makes filter-and-refine
// worthwhile grows quadratically with tree size.
#include <memory>

#include "benchmark/benchmark.h"
#include "core/branch_profile.h"
#include "core/positional.h"
#include "datagen/synthetic_generator.h"
#include "filters/histogram_filter.h"
#include "ted/naive_ted.h"
#include "ted/zhang_shasha.h"

namespace treesim {
namespace {

SyntheticParams ParamsForSize(int size) {
  SyntheticParams p;
  p.size_mean = size;
  p.size_stddev = size / 25.0 + 1;
  p.label_count = 8;
  return p;
}

class TreePairFixture : public benchmark::Fixture {
 public:
  void SetUp(const ::benchmark::State& state) override {
    const int size = static_cast<int>(state.range(0));
    labels_ = std::make_shared<LabelDictionary>();
    SyntheticGenerator gen(ParamsForSize(size), labels_, 17);
    a_ = std::make_unique<Tree>(gen.GenerateSeedTree());
    b_ = std::make_unique<Tree>(gen.GenerateSeedTree());
    va_ = std::make_unique<TedTree>(TedTree::FromTree(*a_));
    vb_ = std::make_unique<TedTree>(TedTree::FromTree(*b_));
  }
  void TearDown(const ::benchmark::State&) override {
    va_.reset();
    vb_.reset();
    a_.reset();
    b_.reset();
    labels_.reset();
  }

 protected:
  std::shared_ptr<LabelDictionary> labels_;
  std::unique_ptr<Tree> a_, b_;
  std::unique_ptr<TedTree> va_, vb_;
};

BENCHMARK_DEFINE_F(TreePairFixture, ZhangShasha)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TreeEditDistance(*va_, *vb_));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, ZhangShasha)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(125)
    ->Arg(250);

BENCHMARK_DEFINE_F(TreePairFixture, ZhangShashaWeighted)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TreeEditDistanceWeighted(*va_, *vb_, UnitCostModel::Get()));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, ZhangShashaWeighted)->Arg(50);

BENCHMARK_DEFINE_F(TreePairFixture, NaiveMemoizedTed)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveTreeEditDistance(*a_, *b_));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, NaiveMemoizedTed)->Arg(10)->Arg(25);

BENCHMARK_DEFINE_F(TreePairFixture, BranchLowerBoundEndToEnd)
(benchmark::State& state) {
  // Includes profile extraction — the cost a one-shot comparison pays.
  for (auto _ : state) {
    BranchDictionary dict(2);
    const BranchProfile pa = BranchProfile::FromTree(*a_, dict);
    const BranchProfile pb = BranchProfile::FromTree(*b_, dict);
    benchmark::DoNotOptimize(OptimisticBound(pa, pb));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, BranchLowerBoundEndToEnd)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(125)
    ->Arg(250);

BENCHMARK_DEFINE_F(TreePairFixture, HistogramBoundEndToEnd)
(benchmark::State& state) {
  HistogramFilter filter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Bound(filter.ExtractFeatures(*a_),
                                          filter.ExtractFeatures(*b_)));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, HistogramBoundEndToEnd)
    ->Arg(50)
    ->Arg(250);

BENCHMARK_DEFINE_F(TreePairFixture, TedViewConstruction)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TedTree::FromTree(*a_));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, TedViewConstruction)->Arg(50)->Arg(250);

}  // namespace
}  // namespace treesim

BENCHMARK_MAIN();
