#include "workload.h"

#include <utility>

#include "datagen/dblp_generator.h"
#include "datagen/edit_noise.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "spans.h"
#include "tree/forest_io.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "xml/xml_corpus.h"
#include "xml/xml_parser.h"

namespace perfbench {
namespace {

using treesim::StatusOr;
using treesim::Tree;

// Tree size of synth_join: N{4,0.5}N{60,2}L8D0.05.
constexpr double kSynthSizeMean = 60.0;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"dblp_knn", OpKind::kKnn, true, 5000, 480, 480, 1, {5, 10, 20}, 0},
      {"dblp_range", OpKind::kRange, true, 5000, 480, 480, 1, {2, 4, 6}, 0},
      {"synth_join", OpKind::kJoin, false, 1000, 256, 12, 8, {10}, 4},
  };
  return workloads;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<Tree> GenerateCorpus(
    const WorkloadSpec& spec, uint64_t seed,
    const std::shared_ptr<treesim::LabelDictionary>& labels) {
  if (spec.kind == OpKind::kJoin) {
    treesim::SyntheticParams params;
    params.size_mean = kSynthSizeMean;
    return treesim::SyntheticGenerator(params, labels, seed)
        .GenerateDataset(spec.corpus_trees);
  }
  return treesim::DblpGenerator(treesim::DblpParams{}, labels, seed)
      .Generate(spec.corpus_trees);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

StatusOr<Inputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                                const std::string& dir) {
  auto labels = std::make_shared<treesim::LabelDictionary>();
  const std::vector<Tree> corpus = GenerateCorpus(spec, seed, labels);
  std::string corpus_text;
  if (spec.xml_corpus) {
    corpus_text = "<dblp>\n";
    for (const Tree& t : corpus) corpus_text += treesim::ToXml(t);
    corpus_text += "</dblp>\n";
  } else {
    corpus_text = treesim::ForestToString(corpus);
  }

  // Each query tree is a corpus record with 0-2 random edits drawn from the
  // corpus's own labels (the dblp_dedup example's noise).
  std::vector<treesim::LabelId> label_pool;
  for (treesim::LabelId l = 1; l < labels->id_bound(); ++l) {
    label_pool.push_back(l);
  }
  treesim::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Inputs inputs;
  std::vector<Tree> queries;
  const int query_trees = spec.distinct_ops * spec.batch;
  for (int i = 0; i < query_trees; ++i) {
    const Tree& record = corpus[rng.UniformIndex(corpus.size())];
    const int edits = rng.UniformInt(0, 2);
    queries.push_back(
        treesim::ApplyRandomEdits(record, edits, label_pool, rng).tree);
    inputs.query_edits.push_back(edits);
  }
  const std::string queries_text = treesim::ForestToString(queries);

  const std::string stem = dir + "/" + spec.name;
  inputs.corpus_path = stem + (spec.xml_corpus ? "-corpus.xml" : "-corpus.txt");
  inputs.queries_path = stem + "-queries.txt";
  inputs.digest =
      Fnv1a(queries_text, Fnv1a(corpus_text, kFnvOffset));
  treesim::Status status =
      treesim::WriteStringToFile(corpus_text, inputs.corpus_path);
  if (!status.ok()) return status;
  status = treesim::WriteStringToFile(queries_text, inputs.queries_path);
  if (!status.ok()) return status;
  return inputs;
}

StatusOr<Engine> SetUp(const WorkloadSpec& spec, const Inputs& inputs,
                       SetupTimes* times, SpanRecorder* recorder) {
  const ScopedSpan setup(recorder, "setup", -1, -1);
  Engine engine;
  engine.labels = std::make_shared<treesim::LabelDictionary>();
  treesim::Stopwatch watch;
  StatusOr<std::vector<Tree>> trees = std::vector<Tree>{};
  {
    const ScopedSpan span(recorder,
                          spec.xml_corpus ? "xml.parse" : "tree.parse",
                          setup.index(), -1);
    trees = spec.xml_corpus
                ? treesim::LoadXmlCorpus(inputs.corpus_path, engine.labels)
                : treesim::LoadForest(inputs.corpus_path, engine.labels);
  }
  if (!trees.ok()) return trees.status();
  times->parse_s = watch.ElapsedSeconds();

  watch.Reset();
  {
    const ScopedSpan span(recorder, "search.db_build", setup.index(), -1);
    engine.db = std::make_unique<treesim::TreeDatabase>(engine.labels);
    engine.db->AddAll(std::move(trees).value());
  }
  times->db_build_s = watch.ElapsedSeconds();

  watch.Reset();
  {
    const ScopedSpan span(recorder, "filters.build", setup.index(), -1);
    auto filter = std::make_unique<treesim::BiBranchFilter>();
    if (spec.kind == OpKind::kJoin) {
      engine.join = std::make_unique<treesim::SimilarityJoin>(
          engine.db.get(), std::move(filter));
    } else {
      engine.search = std::make_unique<treesim::SimilaritySearch>(
          engine.db.get(), std::move(filter));
    }
  }
  times->filter_build_s = watch.ElapsedSeconds();
  return engine;
}

StatusOr<Ops> LoadOps(const WorkloadSpec& spec, const Inputs& inputs,
                      const Engine& engine) {
  StatusOr<std::vector<Tree>> trees =
      treesim::LoadForest(inputs.queries_path, engine.labels);
  if (!trees.ok()) return trees.status();
  std::vector<Tree> queries = std::move(trees).value();
  if (static_cast<int>(queries.size()) != spec.distinct_ops * spec.batch) {
    return treesim::Status::InvalidArgument("query file has the wrong size");
  }
  Ops ops;
  if (spec.kind != OpKind::kJoin) {
    ops.queries = std::move(queries);
    return ops;
  }
  for (int b = 0; b < spec.distinct_ops; ++b) {
    auto left = std::make_unique<treesim::TreeDatabase>(engine.labels);
    for (int i = 0; i < spec.batch; ++i) {
      left->Add(std::move(queries[static_cast<size_t>(b * spec.batch + i)]));
    }
    ops.batches.push_back(std::move(left));
  }
  return ops;
}

uint64_t AnswerDigest(const Answer& answer) {
  uint64_t hash = kFnvOffset;
  for (const auto& [left, right, distance] : answer) {
    const int row[3] = {left, right, distance};
    hash = Fnv1a(std::string_view(reinterpret_cast<const char*>(row),
                                  sizeof(row)),
                 hash);
  }
  return hash;
}

int OpParam(const WorkloadSpec& spec, int op) {
  return spec.params[static_cast<size_t>(op) % spec.params.size()];
}

Outcome RunOp(const WorkloadSpec& spec, const Ops& ops, int op,
              treesim::SimilaritySearch* search, treesim::SimilarityJoin* join,
              treesim::ThreadPool* pool) {
  const int param = OpParam(spec, op);
  Outcome out;
  const int64_t start = NowNs();
  switch (spec.kind) {
    case OpKind::kKnn: {
      treesim::KnnResult r =
          search->Knn(ops.queries[static_cast<size_t>(op)], param, pool);
      out.latency_ns = NowNs() - start;
      for (const auto& [id, d] : r.neighbors) out.answer.emplace_back(0, id, d);
      out.stats = r.stats;
      break;
    }
    case OpKind::kRange: {
      treesim::RangeResult r =
          search->Range(ops.queries[static_cast<size_t>(op)], param, pool);
      out.latency_ns = NowNs() - start;
      for (const auto& [id, d] : r.matches) out.answer.emplace_back(0, id, d);
      out.stats = r.stats;
      break;
    }
    case OpKind::kJoin: {
      treesim::JoinResult r =
          join->Join(*ops.batches[static_cast<size_t>(op)], param, pool);
      out.latency_ns = NowNs() - start;
      out.answer = std::move(r.pairs);
      out.stats = r.stats;
      break;
    }
  }
  return out;
}

}  // namespace perfbench
