// Ablation: the design choices inside the BiBranch filter.
//   (a) positional matching mode: exact maximum matching vs the linear
//       min-of-1-D greedy relaxation vs the auto policy (DESIGN.md §5);
//   (b) branch level q on deep vs shallow data (Section 3.4 predicts that
//       multi-level branches pay off only when trees are deep enough to
//       fill the taller perfect-binary window).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "core/positional.h"

namespace treesim {
namespace bench {
namespace {

std::unique_ptr<TreeDatabase> DeepDataset(int trees, uint64_t seed) {
  // Fanout close to 1 yields deep, path-like trees.
  auto labels = std::make_shared<LabelDictionary>();
  SyntheticParams params;
  params.fanout_mean = 1.2;
  params.fanout_stddev = 0.4;
  params.size_mean = 40;
  params.size_stddev = 2;
  params.label_count = 8;
  SyntheticGenerator gen(params, labels, seed);
  return MakeDatabase(labels, gen.GenerateDataset(trees));
}

std::unique_ptr<TreeDatabase> BushyDataset(int trees, uint64_t seed) {
  auto labels = std::make_shared<LabelDictionary>();
  SyntheticParams params;  // paper default: fanout 4, size 50
  SyntheticGenerator gen(params, labels, seed);
  return MakeDatabase(labels, gen.GenerateDataset(trees));
}

void RunMatchingModes(const TreeDatabase& db, int queries, int tau) {
  std::printf("matching-mode ablation (range tau=%d):\n", tau);
  struct Mode {
    const char* label;
    MatchingMode mode;
  };
  for (const Mode& m : {Mode{"exact", MatchingMode::kExact},
                        Mode{"greedy", MatchingMode::kGreedy},
                        Mode{"auto", MatchingMode::kAuto}}) {
    BiBranchFilter::Options o;
    o.matching = m.mode;
    SimilaritySearch engine(&db, std::make_unique<BiBranchFilter>(o));
    Rng rng(777);
    QueryStats total;
    for (int qi = 0; qi < queries; ++qi) {
      const Tree& query = db.tree(
          static_cast<int>(rng.UniformIndex(static_cast<size_t>(db.size()))));
      total += engine.Range(query, tau).stats;
    }
    std::printf("  %-8s accessed%%=%-8.3f filterCPU=%-8.4fs "
                "totalCPU=%-8.4fs\n",
                m.label, 100.0 * total.AccessedFraction(),
                total.filter_seconds, total.TotalSeconds());
  }
}

void RunQSweep(const char* name, const TreeDatabase& db, int queries,
               int tau) {
  std::printf("q sweep on %s data (range tau=%d):\n", name, tau);
  for (const int q : {2, 3, 4}) {
    BiBranchFilter::Options o;
    o.q = q;
    SimilaritySearch engine(&db, std::make_unique<BiBranchFilter>(o));
    Rng rng(888);
    QueryStats total;
    for (int qi = 0; qi < queries; ++qi) {
      const Tree& query = db.tree(
          static_cast<int>(rng.UniformIndex(static_cast<size_t>(db.size()))));
      total += engine.Range(query, tau).stats;
    }
    std::printf("  q=%d accessed%%=%-8.3f filterCPU=%-8.4fs "
                "totalCPU=%-8.4fs\n",
                q, 100.0 * total.AccessedFraction(), total.filter_seconds,
                total.TotalSeconds());
  }
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const CommonFlags common = ParseCommonFlags(flags, 600, 6);
  if (!ApplyQueryLogFlags(common)) return 1;
  const int trees = common.trees;
  const int queries = common.queries;
  std::printf("=== Ablation: positional matching modes and branch level q "
              "===\n");

  auto bushy = BushyDataset(trees, common.seed);
  {
    Rng rng(5);
    const int tau =
        static_cast<int>(bushy->EstimateAverageDistance(rng, 200) / 5);
    RunMatchingModes(*bushy, queries, tau);
    RunQSweep("bushy (fanout 4)", *bushy, queries, tau);
  }
  auto deep = DeepDataset(trees, common.seed);
  {
    Rng rng(5);
    const int tau =
        static_cast<int>(deep->EstimateAverageDistance(rng, 200) / 5);
    RunQSweep("deep (fanout 1.2)", *deep, queries, tau);
  }
  std::printf("expected: exact vs greedy accessed%% nearly identical (auto "
              "= exact on small occurrence lists) with greedy cheapest; "
              "larger q never helps on bushy data but can on deep data "
              "where the height-q window stays informative\n\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
