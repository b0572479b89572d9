// The treesim benchmark driver. One process runs one workload for one seed:
//
//   perfbench --workload=dblp_knn --seed=1 --seconds=30 --trace=0
//             --workdir=DIR [--corrupt-every=N]
//
// It generates the workload's corpus and queries from the seed into DIR,
// loads them through the library's public loaders, and drives the engine as
// one closed-loop caller. Every answer is checked against the same engine
// with no filter (the sequential scan), computed before the timed phase.
// --trace=0 prints the end-to-end metrics; --trace=1 adds a traced replay
// of each operation through the layers and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. perfbench/run.py builds this binary and passes DIR.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "filters/bibranch_filter.h"
#include "replay.h"
#include "spans.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

// Fresh set-ups per run; setup_s is their median.
constexpr int kSetupRuns = 21;
// Untimed operations before measuring (query-side dictionary growth,
// caches).
constexpr int kWarmupOps = 32;
// Random pairs behind the sampled average distance.
constexpr int kDistancePairs = 200;
// Workers that compute the reference answers.
constexpr int kReferenceWorkers = 4;
// Share of a traced run spent without tracing (util.cpu_util and the p50
// that trace.overhead_pct compares with come from it); the rest of the run
// replays every operation.
constexpr double kTracedPlainShare = 0.4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  int corrupt_every = 0;
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      return std::nullopt;
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    if (key == "workload") {
      opt.workload = value;
    } else if (key == "seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      opt.trace = value == "1";
    } else if (key == "workdir") {
      opt.workdir = value;
    } else if (key == "corrupt-every") {
      opt.corrupt_every = std::atoi(value.c_str());
    } else {
      return std::nullopt;
    }
  }
  if (opt.workload.empty() || opt.workdir.empty() || !(opt.seconds > 0)) {
    return std::nullopt;
  }
  return opt;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile, q in (0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Everything a run needs before its measured phase.
struct Bench {
  const WorkloadSpec* spec = nullptr;
  Options opt;
  Inputs inputs;
  Engine engine;
  Ops ops;
  std::vector<uint64_t> reference;  // AnswerDigest per checked operation
  std::vector<SetupTimes> setups;
  std::unique_ptr<treesim::ThreadPool> pool;  // the operation's pool
};

bool Checked(const Bench& b, int op) {
  return static_cast<size_t>(op) < b.reference.size();
}

/// Whether `answer` equals the reference of checked operation `op`. `i`
/// numbers the measured operations; --corrupt-every=N spoils every Nth
/// answer first, to show that mismatches are counted.
bool Matches(const Bench& b, int op, int64_t i, const Answer& answer) {
  const bool corrupt =
      b.opt.corrupt_every > 0 && (i + 1) % b.opt.corrupt_every == 0;
  return !corrupt &&
         AnswerDigest(answer) == b.reference[static_cast<size_t>(op)];
}

Outcome RunEngine(Bench& b, int op, treesim::ThreadPool* pool) {
  return RunOp(*b.spec, b.ops, op, b.engine.search.get(), b.engine.join.get(),
               pool);
}

treesim::Status Prepare(Bench& b, SpanRecorder* recorder) {
  const WorkloadSpec& spec = *b.spec;
  const int64_t start = NowNs();
  const auto since = [](int64_t t) {
    return static_cast<double>(NowNs() - t) * 1e-9;
  };
  std::error_code ec;  // a failure shows as GenerateInputs' write error
  std::filesystem::create_directories(b.opt.workdir, ec);
  treesim::StatusOr<Inputs> inputs =
      GenerateInputs(spec, b.opt.seed, b.opt.workdir);
  if (!inputs.ok()) return inputs.status();
  b.inputs = std::move(inputs).value();
  const double generate_s = since(start);
  const int64_t setups_start = NowNs();

  for (int run = 0; run < kSetupRuns; ++run) {
    b.engine = Engine();  // free the previous set-up first
    SetupTimes times;
    treesim::StatusOr<Engine> engine =
        SetUp(spec, b.inputs, &times, recorder);
    if (!engine.ok()) return engine.status();
    b.engine = std::move(engine).value();
    b.setups.push_back(times);
  }
  treesim::StatusOr<Ops> ops = LoadOps(spec, b.inputs, b.engine);
  if (!ops.ok()) return ops.status();
  b.ops = std::move(ops).value();
  const double setups_s = since(setups_start);

  const int64_t reference_start = NowNs();
  {
    // Reference answers: the same engine with no filter. Answers do not
    // depend on the pool size, so the reference fans out.
    treesim::ThreadPool ref_pool(kReferenceWorkers);
    treesim::SimilaritySearch ref_search(b.engine.db.get(), nullptr);
    treesim::SimilarityJoin ref_join(b.engine.db.get(), nullptr);
    for (int op = 0; op < spec.checked_ops; ++op) {
      b.reference.push_back(AnswerDigest(
          RunOp(spec, b.ops, op, &ref_search, &ref_join, &ref_pool).answer));
    }
  }
  const double reference_s = since(reference_start);
  if (spec.workers > 0) {
    b.pool = std::make_unique<treesim::ThreadPool>(spec.workers);
  }
  for (int op = 0; op < std::min(kWarmupOps, spec.distinct_ops); ++op) {
    RunEngine(b, op, b.pool.get());
  }
  std::printf("before measuring: generate %.2f s, %d set-ups %.2f s, "
              "reference answers %.2f s, total %.2f s\n",
              generate_s, kSetupRuns, setups_s, reference_s, since(start));
  return treesim::Status::Ok();
}

/// The closed loop: one caller, next operation when the last returns.
struct LoopResult {
  std::vector<double> latency_ms;
  int64_t checked = 0;
  int64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  treesim::QueryStats stats;  // summed over operations
};

LoopResult TimedLoop(Bench& b, double seconds) {
  LoopResult r;
  const double cpu_start = CpuSeconds();
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  for (int64_t i = 0;; ++i) {
    if (NowNs() >= stop) break;
    const int op = static_cast<int>(i % b.spec->distinct_ops);
    const Outcome out = RunEngine(b, op, b.pool.get());
    r.latency_ms.push_back(static_cast<double>(out.latency_ns) * 1e-6);
    if (Checked(b, op)) {
      ++r.checked;
      if (!Matches(b, op, i, out.answer)) ++r.failed;
    }
    r.stats += out.stats;
  }
  r.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  r.cpu_s = CpuSeconds() - cpu_start;
  return r;
}

void PrintInputs(const Bench& b, const treesim::QueryStats& stats) {
  const treesim::TreeDatabase& db = *b.engine.db;
  treesim::Rng rng(b.opt.seed);
  const double avg_distance = db.EstimateAverageDistance(rng, kDistancePairs);
  int64_t by_edits[3] = {0, 0, 0};
  for (const int e : b.inputs.query_edits) ++by_edits[e];
  const double queries = static_cast<double>(b.inputs.query_edits.size());
  const double pairs = static_cast<double>(std::max<int64_t>(1, stats.database_size));
  std::printf(
      "inputs: digest=%016" PRIx64 " trees=%d avg_size=%.2f "
      "distinct_labels=%zu avg_distance=%.2f distinct_ops=%d "
      "query_trees=%zu edits0=%.1f%% edits1=%.1f%% edits2=%.1f%% "
      "result_pct=%.3f accessed_pct=%.3f\n",
      b.inputs.digest, db.size(), db.AverageTreeSize(),
      b.engine.labels->size(), avg_distance, b.spec->distinct_ops,
      b.inputs.query_edits.size(), 100.0 * by_edits[0] / queries,
      100.0 * by_edits[1] / queries, 100.0 * by_edits[2] / queries,
      100.0 * static_cast<double>(stats.results) / pairs,
      100.0 * static_cast<double>(stats.edit_distance_calls) / pairs);
}

double MedianSetup(const Bench& b, double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& t : b.setups) v.push_back(t.*field);
  return Median(v);
}

int RunTimed(Bench& b) {
  const LoopResult r = TimedLoop(b, b.opt.seconds);
  std::vector<double> setup_s;
  for (const SetupTimes& t : b.setups) setup_s.push_back(t.total_s());
  const int64_t n = static_cast<int64_t>(r.latency_ms.size());
  const int64_t attempted = std::max<int64_t>(n, 1);
  const int64_t failed = r.failed;
  const int64_t checked = std::max<int64_t>(r.checked, 1);
  // latency_p99_ms is printed but not in the JSON metrics: on synth_join
  // its run-to-run spread on a shared 4-vCPU host exceeds the largest bound
  // a gated metric may have (see README.md).
  const Metric p99 = {"latency_p99_ms", Quantile(r.latency_ms, 0.99), "ms"};
  const std::vector<Metric> metrics = {
      {"latency_p50_ms", Median(r.latency_ms), "ms"},
      {"ops_per_s", static_cast<double>(n) / r.wall_s, "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintInputs(b, r.stats);
  const int64_t beyond_p99 = n - static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(n)));
  std::vector<Metric> printed = metrics;
  printed.insert(printed.begin() + 1, p99);
  for (const Metric& m : printed) {
    std::printf("%-16s %14.6f %-4s (samples=%" PRId64 ")\n", m.name.c_str(),
                m.value, m.unit,
                m.name == "setup_s" ? static_cast<int64_t>(b.setups.size())
                : m.name == "peak_rss_mb" ? int64_t{1}
                                          : n);
  }
  std::printf("latency_p99_ms has %" PRId64 " samples beyond it\n", beyond_p99);
  std::printf("%-16s %14.6f %-4s (%" PRId64 " of %" PRId64
              " checked operations mismatched; %" PRId64
              " attempted, %d of %d distinct operations checked)\n",
              "error_rate", static_cast<double>(failed) / checked, "ratio",
              failed, r.checked, n, b.spec->checked_ops,
              b.spec->distinct_ops);
  PrintResult(failed == 0 && n > 0, attempted, failed, metrics);
  return 0;
}

/// Per-operation sums of the traced phase's spans, by layer.
struct OpTrace {
  int64_t engine_ns = 0;         // the engine call as timed
  int64_t engine_serial_ns = 0;  // same call with no pool (join only)
  int64_t prepare_ns = 0;
  int64_t bound_ns = 0;
  int64_t view_ns = 0;
  int64_t refine_ns = 0;

  int64_t layer_ns() const {
    return prepare_ns + bound_ns + view_ns + refine_ns;
  }
};

void SumSpans(const std::vector<Span>& spans, std::vector<OpTrace>& ops) {
  for (const Span& s : spans) {
    if (s.op < 0) continue;  // set-up spans
    OpTrace& t = ops[static_cast<size_t>(s.op)];
    const std::string_view name = s.name;
    int64_t* slot = name == "search.engine"          ? &t.engine_ns
                    : name == "search.engine_serial" ? &t.engine_serial_ns
                    : name == "filters.prepare"      ? &t.prepare_ns
                    : name == "filters.bound"        ? &t.bound_ns
                    : name == "ted.view"             ? &t.view_ns
                    : name == "ted.refine"           ? &t.refine_ns
                                                     : nullptr;
    if (slot != nullptr) *slot += s.duration_ns();
  }
}

int RunTraced(Bench& b, SpanRecorder& recorder) {
  const WorkloadSpec& spec = *b.spec;
  const treesim::TreeDatabase& db = *b.engine.db;
  // The replay's own filter, built like the engine's over the same trees.
  treesim::BiBranchFilter filter;
  filter.Build(db.trees());
  const treesim::BranchDictionary& branches =
      filter.inverted_file().branch_dict();
  const int64_t branches_built = static_cast<int64_t>(branches.size());
  int64_t postings = 0;
  for (size_t id = 0; id < branches.size(); ++id) {
    postings += static_cast<int64_t>(
        filter.inverted_file()
            .postings(static_cast<treesim::BranchId>(id))
            .size());
  }

  // Phase 1: the timed loop without tracing, for cpu_util and the p50 the
  // tracing overhead is measured against.
  const LoopResult plain = TimedLoop(b, b.opt.seconds * kTracedPlainShare);
  int64_t failed = plain.failed;
  int64_t attempted = static_cast<int64_t>(plain.latency_ms.size());

  // Phase 2: each operation runs through the engine and through the
  // replay. The engine's answer must equal the reference where there is
  // one; the replay's answer and TED call count must equal the engine's.
  std::vector<ReplayCounts> counts;
  int64_t replay_mismatches = 0;
  int64_t call_mismatches = 0;
  const int64_t stop =
      NowNs() + static_cast<int64_t>(b.opt.seconds * (1 - kTracedPlainShare) * 1e9);
  for (int64_t i = 0; NowNs() < stop; ++i) {
    const int op = static_cast<int>(i % spec.distinct_ops);
    const int64_t op_id = i;
    // Engine first on even operations, replay first on odd ones, so that
    // neither side always runs on caches the other warmed.
    ReplayOutcome replay;
    const auto run_replay = [&] {
      const ScopedSpan root(&recorder, "replay", -1, op_id);
      replay = Replay(spec, b.ops, op, db, filter, recorder, root.index(), op_id);
    };
    if (i % 2 == 1) run_replay();
    Outcome engine_out;
    {
      const ScopedSpan span(&recorder, "search.engine", -1, op_id);
      engine_out = RunEngine(b, op, b.pool.get());
    }
    if (b.pool != nullptr) {
      // The replay is single-threaded; self time compares it with the same
      // operation on no pool.
      Outcome serial;
      {
        const ScopedSpan span(&recorder, "search.engine_serial", -1, op_id);
        serial = RunEngine(b, op, nullptr);
      }
      if (serial.answer != engine_out.answer) ++failed;
      ++attempted;
    }
    if (i % 2 == 0) run_replay();
    ++attempted;
    if (Checked(b, op) && !Matches(b, op, i, engine_out.answer)) ++failed;
    if (replay.answer != engine_out.answer) ++replay_mismatches;
    if (replay.counts.ted_calls != engine_out.stats.edit_distance_calls) {
      ++call_mismatches;
    }
    counts.push_back(replay.counts);
  }
  failed += replay_mismatches + call_mismatches;

  const int64_t traced_ops = static_cast<int64_t>(counts.size());
  std::vector<OpTrace> ops(static_cast<size_t>(traced_ops));
  SumSpans(recorder.spans(), ops);
  std::vector<double> prepare_us, bound_us, view_us, refine_us, ted_calls,
      bound_calls, cells, band_pruned, early_exits, searchlbound, self_us,
      serial_frac, engine_ms;
  ReplayCounts total;
  double layer_s = 0, engine_s = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    OpTrace& t = ops[i];
    const ReplayCounts& c = counts[i];
    prepare_us.push_back(static_cast<double>(t.prepare_ns) * 1e-3);
    bound_us.push_back(static_cast<double>(t.bound_ns) * 1e-3);
    view_us.push_back(static_cast<double>(t.view_ns) * 1e-3);
    refine_us.push_back(static_cast<double>(t.refine_ns) * 1e-3);
    const int64_t serial_ns =
        b.pool != nullptr ? t.engine_serial_ns : t.engine_ns;
    self_us.push_back(static_cast<double>(serial_ns - t.layer_ns()) * 1e-3);
    serial_frac.push_back(static_cast<double>(t.prepare_ns) /
                          static_cast<double>(t.engine_ns));
    engine_ms.push_back(static_cast<double>(t.engine_ns) * 1e-6);
    ted_calls.push_back(static_cast<double>(c.ted_calls));
    bound_calls.push_back(static_cast<double>(c.bound_calls));
    cells.push_back(static_cast<double>(c.cells_computed));
    band_pruned.push_back(static_cast<double>(c.cells_band_pruned));
    early_exits.push_back(static_cast<double>(c.early_exits));
    searchlbound.push_back(static_cast<double>(c.searchlbound_calls));
    layer_s += static_cast<double>(t.layer_ns()) * 1e-9;
    engine_s += static_cast<double>(t.engine_ns) * 1e-9;
    total.bound_calls += c.bound_calls;
    total.ted_calls += c.ted_calls;
    total.ted_rejects += c.ted_rejects;
    total.results += c.results;
    total.cells_computed += c.cells_computed;
  }
  const auto sum_s = [](const std::vector<double>& us) {
    double s = 0;
    for (const double v : us) s += v;
    return s * 1e-6;
  };
  const double calls = static_cast<double>(std::max<int64_t>(1, total.ted_calls));
  const double pairs = static_cast<double>(
      std::max<int64_t>(1, traced_ops * spec.batch * db.size()));
  const int workers = std::max(1, spec.workers);
  const double plain_p50 = Median(plain.latency_ms);
  const bool xml = spec.xml_corpus;
  const std::vector<Metric> metrics = {
      {"xml.parse_s", xml ? MedianSetup(b, &SetupTimes::parse_s) : 0, "s"},
      {"tree.parse_s", xml ? 0 : MedianSetup(b, &SetupTimes::parse_s), "s"},
      {"search.db_build_s", MedianSetup(b, &SetupTimes::db_build_s), "s"},
      {"filters.build_s", MedianSetup(b, &SetupTimes::filter_build_s), "s"},
      {"core.branches", static_cast<double>(branches_built), "count"},
      {"core.postings", static_cast<double>(postings), "count"},
      {"core.branches_added",
       static_cast<double>(static_cast<int64_t>(branches.size()) -
                           branches_built),
       "count"},
      {"filters.prepare_us", Median(prepare_us), "us"},
      {"filters.bound_us", Median(bound_us), "us"},
      {"filters.bound_calls", Median(bound_calls), "count"},
      {"filters.accessed_pct",
       100.0 * static_cast<double>(total.ted_calls) / pairs, "%"},
      {"filters.precision", static_cast<double>(total.results) / calls,
       "ratio"},
      {"ted.view_us", Median(view_us), "us"},
      {"ted.refine_us", Median(refine_us), "us"},
      {"ted.calls", Median(ted_calls), "count"},
      {"ted.us_per_call", sum_s(refine_us) * 1e6 / calls, "us"},
      {"ted.reject_frac", static_cast<double>(total.ted_rejects) / calls,
       "ratio"},
      {"ted.cells_computed", Median(cells), "count"},
      {"ted.cells_band_pruned", Median(band_pruned), "count"},
      {"ted.early_exits", Median(early_exits), "count"},
      {"core.searchlbound_calls", Median(searchlbound), "count"},
      {"search.self_us", Median(self_us), "us"},
      {"util.serial_frac", Median(serial_frac), "ratio"},
      {"util.parallel_efficiency",
       layer_s / (static_cast<double>(workers) * engine_s), "ratio"},
      {"util.cpu_util", plain.cpu_s / plain.wall_s, "ratio"},
      {"trace.overhead_pct", 100.0 * (Median(engine_ms) - plain_p50) / plain_p50,
       "%"},
      {"trace.ops", static_cast<double>(traced_ops), "count"},
      {"filters.prepare_s_total", sum_s(prepare_us), "s"},
      {"filters.bound_s_total", sum_s(bound_us), "s"},
      {"ted.view_s_total", sum_s(view_us), "s"},
      {"ted.refine_s_total", sum_s(refine_us), "s"},
      {"search.engine_s_total", engine_s, "s"},
      {"filters.bound_calls_total", static_cast<double>(total.bound_calls),
       "count"},
      {"ted.calls_total", static_cast<double>(total.ted_calls), "count"},
      {"ted.cells_computed_total", static_cast<double>(total.cells_computed),
       "count"},
  };

  const std::string spans_path = b.opt.workdir + "/" + spec.name + "-seed" +
                                 std::to_string(b.opt.seed) + "-spans.jsonl";
  const treesim::Status written = recorder.WriteJsonLines(spans_path);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  treesim::QueryStats stats;
  stats.database_size = static_cast<int64_t>(pairs);
  stats.results = total.results;
  stats.edit_distance_calls = total.ted_calls;
  PrintInputs(b, stats);
  std::printf("traced %" PRId64 " operations; %zu spans in %s\n", traced_ops,
              recorder.spans().size(), spans_path.c_str());
  std::printf("replay answer mismatches %" PRId64
              ", TED-call count mismatches %" PRId64 "\n",
              replay_mismatches, call_mismatches);
  for (const Metric& m : metrics) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintResult(failed == 0 && traced_ops > 0, std::max<int64_t>(1, attempted),
              failed, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  const std::optional<Options> opt = ParseArgs(argc, argv);
  if (!opt.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --workdir=DIR [--corrupt-every=N]\n");
    return 2;
  }
  Bench b;
  b.opt = *opt;
  b.spec = FindWorkload(opt->workload);
  if (b.spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt->workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              b.spec->name, b.opt.seed, b.opt.seconds, b.opt.trace ? 1 : 0);
  SpanRecorder recorder;
  const treesim::Status prepared =
      Prepare(b, b.opt.trace ? &recorder : nullptr);
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", prepared.ToString().c_str());
    return 1;
  }
  return b.opt.trace ? RunTraced(b, recorder) : RunTimed(b);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
