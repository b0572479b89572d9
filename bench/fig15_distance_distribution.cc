// Reproduces Figure 15: distribution of DBLP data over distances to the
// queries, for the exact edit distance and for each lower-bound distance —
// the histogram bound and the q-level binary branch bounds (q = 2, 3, 4).
// For every distance d the table reports the average percentage of the
// dataset whose (bound or exact) distance to the query is <= d; a tighter
// lower bound hugs the Edit column from above.
//
// Paper shape: BiBranch(2) is the best lower bound everywhere; BiBranch(3)
// and BiBranch(4) only beat Histo for d < 3 — multi-level branches are not
// effective on shallow, small DBLP trees (Section 5.3).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/positional.h"
#include "datagen/dblp_generator.h"
#include "filters/histogram_filter.h"
#include "ted/zhang_shasha.h"

namespace treesim {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 2000, 40);
  if (!ApplyQueryLogFlags(common)) return 1;
  const int trees = common.trees;
  const int queries = common.queries;
  const int max_distance = static_cast<int>(flags.GetInt("max_distance", 12));

  PrintFigureHeader("Figure 15",
                    "data distribution on distance (DBLP-like)",
                    "cumulative % of data within distance d per measure",
                    queries);
  auto labels = std::make_shared<LabelDictionary>();
  DblpGenerator gen(DblpParams{}, labels, common.seed);
  auto db = MakeDatabase(labels, gen.Generate(trees));

  HistogramFilter histo(NormalizedHistogramOptions(*db));
  histo.Build(db->trees());
  BranchDictionary branches2(2);
  BranchDictionary branches3(3);
  BranchDictionary branches4(4);
  std::vector<BranchProfile> p2, p3, p4;
  for (int i = 0; i < db->size(); ++i) {
    p2.push_back(BranchProfile::FromTree(db->tree(i), branches2));
    p3.push_back(BranchProfile::FromTree(db->tree(i), branches3));
    p4.push_back(BranchProfile::FromTree(db->tree(i), branches4));
  }

  // cumulative[measure][d] = count of (query, data) pairs with value <= d.
  enum { kEdit = 0, kHisto, kBB2, kBB3, kBB4, kMeasures };
  std::vector<std::vector<int64_t>> cumulative(
      kMeasures, std::vector<int64_t>(static_cast<size_t>(max_distance) + 1));
  auto bump = [&](int measure, int value) {
    for (int d = value; d <= max_distance; ++d) {
      if (d >= 0) ++cumulative[static_cast<size_t>(measure)]
                              [static_cast<size_t>(d)];
    }
  };

  Rng rng(20050614);
  for (int qi = 0; qi < queries; ++qi) {
    const int query_id =
        static_cast<int>(rng.UniformIndex(static_cast<size_t>(db->size())));
    const Tree& query = db->tree(query_id);
    auto histo_ctx = histo.PrepareQuery(query);
    const BranchProfile q2 = BranchProfile::FromTree(query, branches2);
    const BranchProfile q3 = BranchProfile::FromTree(query, branches3);
    const BranchProfile q4 = BranchProfile::FromTree(query, branches4);
    for (int id = 0; id < db->size(); ++id) {
      bump(kEdit, TreeEditDistance(db->ted_view(query_id), db->ted_view(id)));
      bump(kHisto, static_cast<int>(histo.LowerBound(*histo_ctx, id)));
      bump(kBB2, OptimisticBound(q2, p2[static_cast<size_t>(id)]));
      bump(kBB3, OptimisticBound(q3, p3[static_cast<size_t>(id)]));
      bump(kBB4, OptimisticBound(q4, p4[static_cast<size_t>(id)]));
    }
  }

  const double denom =
      static_cast<double>(queries) * static_cast<double>(db->size()) / 100.0;
  std::printf("%-9s %-8s %-8s %-12s %-12s %-12s\n", "distance", "Edit",
              "Histo", "BiBranch(2)", "BiBranch(3)", "BiBranch(4)");
  for (int d = 1; d <= max_distance; ++d) {
    std::printf("%-9d %-8.2f %-8.2f %-12.2f %-12.2f %-12.2f\n", d,
                cumulative[kEdit][static_cast<size_t>(d)] / denom,
                cumulative[kHisto][static_cast<size_t>(d)] / denom,
                cumulative[kBB2][static_cast<size_t>(d)] / denom,
                cumulative[kBB3][static_cast<size_t>(d)] / denom,
                cumulative[kBB4][static_cast<size_t>(d)] / denom);
  }
  std::printf("expected shape: every bound column >= Edit; BiBranch(2) is "
              "closest to Edit; BiBranch(3)/(4) beat Histo only at small "
              "distances on shallow DBLP trees\n\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
