#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "search/query_stats.h"
#include "search/similarity_join.h"
#include "search/similarity_search.h"
#include "search/tree_database.h"
#include "tree/label_dictionary.h"
#include "tree/tree.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace perfbench {

class SpanRecorder;

enum class OpKind { kKnn, kRange, kJoin };

/// One benchmark workload: how its inputs are generated and which engine
/// call one operation makes.
struct WorkloadSpec {
  const char* name;
  OpKind kind;
  /// Corpus written as one XML document (LoadXmlCorpus) or as a bracket
  /// forest file (LoadForest).
  bool xml_corpus;
  int corpus_trees;
  /// Distinct operations generated; the timed loop cycles through them.
  int distinct_ops;
  /// Distinct operations whose answers are checked against the no-filter
  /// engine: the first `checked_ops`, a seeded sample since operations are
  /// drawn at random. A no-filter join verifies every pair (a second per
  /// batch), so synth_join checks a sample and keeps many distinct batches
  /// for a steady latency tail.
  int checked_ops;
  /// Query trees per operation: the join batch size, 1 for search.
  int batch;
  /// k (kKnn) or tau (kRange, kJoin), cycled by distinct-operation index.
  std::vector<int> params;
  /// ThreadPool size the operation runs on; 0 = no pool.
  int workers;
};

/// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// The generated input files of one (workload, seed).
struct Inputs {
  std::string corpus_path;
  std::string queries_path;
  /// Random edits applied to each query tree (0, 1 or 2).
  std::vector<int> query_edits;
  /// FNV-1a 64 over both files' bytes.
  uint64_t digest = 0;
};

/// Generates the corpus and the queries from `seed` and writes them under
/// `dir`. Same seed, same bytes.
treesim::StatusOr<Inputs> GenerateInputs(const WorkloadSpec& spec,
                                         uint64_t seed,
                                         const std::string& dir);

/// A loaded corpus and the engine over it.
struct Engine {
  std::shared_ptr<treesim::LabelDictionary> labels;
  std::unique_ptr<treesim::TreeDatabase> db;
  std::unique_ptr<treesim::SimilaritySearch> search;  // kKnn, kRange
  std::unique_ptr<treesim::SimilarityJoin> join;      // kJoin
};

/// Seconds per set-up step: parse, TreeDatabase::AddAll, engine
/// construction (which runs BiBranchFilter::Build).
struct SetupTimes {
  double parse_s = 0;
  double db_build_s = 0;
  double filter_build_s = 0;

  double total_s() const { return parse_s + db_build_s + filter_build_s; }
};

/// Corpus file -> parsed trees -> TreeDatabase -> engine with a BiBranch
/// filter. With a recorder, each step is a span under a "setup" root.
treesim::StatusOr<Engine> SetUp(const WorkloadSpec& spec, const Inputs& inputs,
                                SetupTimes* times, SpanRecorder* recorder);

/// The distinct operations' query trees, loaded into the engine's label
/// dictionary: one tree per search operation, one left-side database per
/// join batch.
struct Ops {
  std::vector<treesim::Tree> queries;
  std::vector<std::unique_ptr<treesim::TreeDatabase>> batches;
};
treesim::StatusOr<Ops> LoadOps(const WorkloadSpec& spec, const Inputs& inputs,
                               const Engine& engine);

/// k or tau of distinct operation `op`.
int OpParam(const WorkloadSpec& spec, int op);

/// An operation's answer as (left, right, distance) rows: (0, id, d) for
/// search, in the engine's order.
using Answer = std::vector<std::tuple<int, int, int>>;

/// FNV-1a 64 over an answer's rows; the reference answers are kept as
/// digests so that they do not weigh on the run's peak memory.
uint64_t AnswerDigest(const Answer& answer);

struct Outcome {
  Answer answer;
  treesim::QueryStats stats;
  /// Wall time of the engine call alone.
  int64_t latency_ns = 0;
};

/// Runs distinct operation `op` once through `search` / `join` (either may
/// be the no-filter reference engine) on `pool` (may be null).
Outcome RunOp(const WorkloadSpec& spec, const Ops& ops, int op,
              treesim::SimilaritySearch* search, treesim::SimilarityJoin* join,
              treesim::ThreadPool* pool);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
