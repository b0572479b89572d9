// The Section 2.1 extension end-to-end: filter-and-refine search under a
// general cost model, with filter bounds scaled by the minimum operation
// cost. Exactness is verified against a weighted sequential scan.
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "filters/sequence_filter.h"
#include "search/similarity_search.h"
#include "test_util.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::MakeTree;
using testing::RandomTree;

/// Ops cost between 0.5 and 1.5 depending on the labels involved.
class SkewedCosts final : public CostModel {
 public:
  double Relabel(LabelId a, LabelId b) const override {
    return a == b ? 0.0 : 0.5 + 0.5 * ((a + b) % 3);
  }
  double Insert(LabelId l) const override { return 0.5 + 0.25 * (l % 3); }
  double Delete(LabelId l) const override { return 0.5 + 0.5 * (l % 2); }
  double MinOperationCost() const override { return 0.5; }
};

class WeightedSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dict_ = std::make_shared<LabelDictionary>();
    pool_ = MakeLabelPool(dict_, 4);
    Rng rng(1601);
    db_ = std::make_unique<TreeDatabase>(dict_);
    for (int i = 0; i < 50; ++i) {
      db_->Add(RandomTree(rng.UniformInt(1, 20), pool_, dict_, rng));
    }
    sequential_ = std::make_unique<SimilaritySearch>(db_.get(), nullptr);
  }

  std::shared_ptr<LabelDictionary> dict_;
  std::vector<LabelId> pool_;
  std::unique_ptr<TreeDatabase> db_;
  std::unique_ptr<SimilaritySearch> sequential_;
  SkewedCosts costs_;
};

TEST_F(WeightedSearchTest, RangeMatchesWeightedSequentialScan) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  SimilaritySearch histo(db_.get(), std::make_unique<HistogramFilter>());
  Rng rng(1607);
  for (int qi = 0; qi < 8; ++qi) {
    Tree query = RandomTree(rng.UniformInt(1, 20), pool_, dict_, rng);
    for (const double tau : {0.5, 1.75, 4.0, 8.25}) {
      const WeightedRangeResult expected =
          sequential_->RangeWeighted(query, tau, costs_);
      const WeightedRangeResult bb =
          bibranch.RangeWeighted(query, tau, costs_);
      const WeightedRangeResult hi = histo.RangeWeighted(query, tau, costs_);
      EXPECT_EQ(bb.matches, expected.matches) << "tau=" << tau;
      EXPECT_EQ(hi.matches, expected.matches) << "tau=" << tau;
      EXPECT_LE(bb.stats.candidates, expected.stats.candidates);
    }
  }
}

TEST_F(WeightedSearchTest, KnnMatchesWeightedSequentialScan) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  Rng rng(1609);
  for (int qi = 0; qi < 8; ++qi) {
    Tree query = RandomTree(rng.UniformInt(1, 20), pool_, dict_, rng);
    for (const int k : {1, 4, 10}) {
      const WeightedKnnResult expected =
          sequential_->KnnWeighted(query, k, costs_);
      const WeightedKnnResult got = bibranch.KnnWeighted(query, k, costs_);
      EXPECT_EQ(got.neighbors, expected.neighbors) << "k=" << k;
      EXPECT_LE(got.stats.edit_distance_calls,
                expected.stats.edit_distance_calls);
    }
  }
}

TEST_F(WeightedSearchTest, UnitCostsReduceToIntegerEngine) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  Rng rng(1613);
  Tree query = RandomTree(12, pool_, dict_, rng);
  const RangeResult unit = bibranch.Range(query, 3);
  const WeightedRangeResult weighted =
      bibranch.RangeWeighted(query, 3.0, UnitCostModel::Get());
  ASSERT_EQ(unit.matches.size(), weighted.matches.size());
  for (size_t i = 0; i < unit.matches.size(); ++i) {
    EXPECT_EQ(unit.matches[i].first, weighted.matches[i].first);
    EXPECT_DOUBLE_EQ(static_cast<double>(unit.matches[i].second),
                     weighted.matches[i].second);
  }

  const KnnResult unit_knn = bibranch.Knn(query, 5);
  const WeightedKnnResult weighted_knn =
      bibranch.KnnWeighted(query, 5, UnitCostModel::Get());
  ASSERT_EQ(unit_knn.neighbors.size(), weighted_knn.neighbors.size());
  for (size_t i = 0; i < unit_knn.neighbors.size(); ++i) {
    EXPECT_EQ(unit_knn.neighbors[i].first, weighted_knn.neighbors[i].first);
    EXPECT_DOUBLE_EQ(static_cast<double>(unit_knn.neighbors[i].second),
                     weighted_knn.neighbors[i].second);
  }
}

TEST_F(WeightedSearchTest, NonFiniteTauIsExactAndRecordsADefinedParam) {
  // +inf admits every tree and NaN none; both are legal thresholds, and
  // the flight record's integer `param` takes them by a saturating rule
  // (+inf -> INT64_MAX, NaN -> 0), never by an undefined cast.
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  const Tree& query = db_->tree(3);
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, int64_t> cases[] = {
      {inf, std::numeric_limits<int64_t>::max()}, {std::nan(""), 0}};
  for (const auto& [tau, param] : cases) {
    const WeightedRangeResult expected =
        sequential_->RangeWeighted(query, tau, costs_);
    const WeightedRangeResult got = bibranch.RangeWeighted(query, tau, costs_);
    EXPECT_EQ(got.matches, expected.matches) << "tau=" << tau;
    EXPECT_EQ(expected.matches.size(),
              std::isnan(tau) ? 0u : static_cast<size_t>(db_->size()));
    if (kMetricsEnabled) {
      const std::vector<FlightRecord> records =
          FlightRecorder::Global().Snapshot();
      ASSERT_FALSE(records.empty());
      EXPECT_STREQ(records.back().op, "range_weighted");
      EXPECT_EQ(records.back().param, param) << "tau=" << tau;
      EXPECT_EQ(records.back().results,
                static_cast<int64_t>(got.matches.size()));
    }
  }
}

TEST_F(WeightedSearchTest, SequenceFilterIsExactAtEveryThreshold) {
  // The sequence filter tests at an integer threshold; +inf and values past
  // INT_MAX must saturate (every tree may qualify) and NaN/negative ones
  // admit nothing, exactly as the sequential scan answers them.
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto mode : {SequenceFilter::Options::Mode::kEditDistance,
                          SequenceFilter::Options::Mode::kQGram}) {
    SequenceFilter::Options options;
    options.mode = mode;
    SimilaritySearch sequence(db_.get(),
                              std::make_unique<SequenceFilter>(options));
    for (const int qi : {3, 17}) {
      const Tree& query = db_->tree(qi);
      for (const double tau : {inf, 3e9, std::nan(""), -1.0, 2.5}) {
        const WeightedRangeResult expected =
            sequential_->RangeWeighted(query, tau, UnitCostModel::Get());
        const WeightedRangeResult got =
            sequence.RangeWeighted(query, tau, UnitCostModel::Get());
        EXPECT_EQ(got.matches, expected.matches)
            << sequence.filter_name() << " query=" << qi << " tau=" << tau;
        if (tau > 1e9) {
          EXPECT_EQ(expected.matches.size(), static_cast<size_t>(db_->size()));
        }
      }
    }
  }
}

TEST_F(WeightedSearchTest, SelfQueryAtDistanceZero) {
  SimilaritySearch bibranch(db_.get(), std::make_unique<BiBranchFilter>());
  const WeightedKnnResult r = bibranch.KnnWeighted(db_->tree(5), 1, costs_);
  ASSERT_EQ(r.neighbors.size(), 1u);
  EXPECT_DOUBLE_EQ(r.neighbors[0].second, 0.0);
}

}  // namespace
}  // namespace treesim
