// perfbench_e2e — the end-to-end benchmark's measuring binary. One
// invocation builds one workload's SharedContext from a seed and runs the
// full AdaptiveExtractionPipeline on it repeatedly; every measurement is
// taken from outside the pipeline:
//   - set-up layers: process CPU timers (and trace spans) around the calls to
//     GenerateCorpus, TrainExtractionSystem, ExtractionOutcomes::Compute,
//     FeaturizePool and BuildCompactPoolIndex;
//   - the index layer: TimedSearchIndex, a SearchIndex decorator passed in
//     SharedContext::index;
//   - loop layers: PipelineResult fields, its exact metrics counters, and
//     (traced mode) the Tracer spans the pipeline already records.
//
// It prints one JSON object per line on stdout (kinds: host, setup, run);
// perfbench/run.py turns them into the benchmark's metrics and checks.
//
//   perfbench_e2e --workload NAME --seed N --seconds S [--trace-dir DIR]
//
// Without --trace-dir: kSetupReps timed set-ups, then untraced runs until S
// seconds have passed. With --trace-dir: one trace session covering one
// set-up and one run, exported to DIR/trace.json, then the same untraced
// runs (the tracing-overhead baseline).
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "corpus/generator.h"
#include "eval/metrics.h"
#include "extract/extraction_system.h"
#include "pipeline/pipeline.h"

namespace {

using namespace ie;

/// One workload: a relation, a pipeline configuration and a corpus size.
/// perfbench/README.md says why each exists.
struct Workload {
  const char* name;
  RelationId relation;
  RankerKind ranker;
  UpdateKind update;
  AccessMode access;
  size_t num_docs;
  bool live_extraction;
  /// Instances per workload seed: each pairs a pipeline seed with one of
  /// the workload's corpora, all derived from the workload seed, and runs
  /// cycle through them. The warm-up sample decides how many updates fire
  /// (Top-K's, and the search refreshes that follow Wind-F's) and how well
  /// the ranking starts; on a 20k corpus the corpus itself moves Top-K's
  /// cost per check. With one instance a run's cost and quality would hinge
  /// on a single draw. Each invocation runs every instance at least once,
  /// so the count is bounded by the run time: topk-sparse's 5 s runs allow
  /// four.
  size_t instances;
  /// Corpora per set-up; instance i runs on corpus i % corpora. More than
  /// one only where set-up is cheap.
  size_t corpora;
};

constexpr Workload kWorkloads[] = {
    {"topk-sparse", RelationId::kManMadeDisaster, RankerKind::kRSVMIE,
     UpdateKind::kTopK, AccessMode::kFullAccess, 20000, false, 4, 2},
    {"windf-live", RelationId::kPersonCharge, RankerKind::kBAggIE,
     UpdateKind::kWindF, AccessMode::kFullAccess, 20000, true, 4, 2},
    {"search-refresh", RelationId::kPersonCharge, RankerKind::kBAggIE,
     UpdateKind::kWindF, AccessMode::kSearchInterface, 50000, false, 8, 1},
};

/// Untraced set-ups per invocation; setup_s is their median.
constexpr size_t kSetupReps = 3;

/// Stopwatch over the CPU time of the whole process, all threads
/// (CLOCK_PROCESS_CPUTIME_ID). The benchmark's set-up and run times are
/// CPU times: on a shared host, wall time also counts the time other
/// tenants hold the cores, which varies by tens of percent from one
/// minute to the next.
class ProcessCpuTimer {
 public:
  ProcessCpuTimer() : start_(Now()) {}
  double ElapsedSeconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// Events per thread buffer in traced runs. windf-live records one
/// executor.inline_task span (two events) per pool document — its 28,650
/// documents alone take 57,300 of the 65,536-event default.
constexpr size_t kTraceBufferEvents = size_t{1} << 19;

/// Threads for the set-up calls that take a thread count. Results are
/// identical at any count; the cap keeps set-up time comparable across
/// hosts with many cores.
size_t SetupThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// SearchIndex decorator: forwards every call and times Search (the
/// virtual that SearchText and every backend query go through).
class TimedSearchIndex : public SearchIndex {
 public:
  explicit TimedSearchIndex(const SearchIndex* inner) : inner_(inner) {}

  size_t NumDocs() const override { return inner_->NumDocs(); }
  size_t NumPostings() const override { return inner_->NumPostings(); }
  size_t DocFreq(TokenId term) const override {
    return inner_->DocFreq(term);
  }
  size_t PostingsBytes() const override { return inner_->PostingsBytes(); }

  std::vector<SearchHit> Search(const std::vector<TokenId>& terms,
                                size_t k) const override {
    TraceSpan span("index.search");
    WallTimer timer;
    std::vector<SearchHit> hits = inner_->Search(terms, k);
    seconds_ += timer.ElapsedSeconds();
    ++calls_;
    hits_ += hits.size();
    return hits;
  }

  void Reset() {
    calls_ = 0;
    hits_ = 0;
    seconds_ = 0.0;
  }
  uint64_t calls() const { return calls_; }
  uint64_t hits() const { return hits_; }
  double seconds() const { return seconds_; }

 private:
  const SearchIndex* inner_;
  // The pipeline searches from its consumer thread only.
  mutable uint64_t calls_ = 0;
  mutable uint64_t hits_ = 0;
  mutable double seconds_ = 0.0;
};

/// Everything one SharedContext points into: a corpus and what is built
/// from it.
struct Setup {
  Corpus corpus;
  std::unique_ptr<ExtractionSystem> system;
  ExtractionOutcomes outcomes;
  std::unique_ptr<Featurizer> featurizer;
  std::vector<SparseVector> word_features;
  std::unique_ptr<CompactIndex> index;
  std::unique_ptr<TimedSearchIndex> timed_index;

  double generate_s = 0.0;
  double train_s = 0.0;
  double outcomes_s = 0.0;
  double featurize_s = 0.0;
  double index_build_s = 0.0;
  double total_s = 0.0;

  SharedContext Context(const Workload& workload) const {
    SharedContext context;
    context.corpus = &corpus;
    context.pool = &corpus.splits().test;
    context.outcomes = &outcomes;
    context.relation = &GetRelation(workload.relation);
    context.featurizer = featurizer.get();
    context.word_features = &word_features;
    context.index = timed_index.get();
    if (workload.live_extraction) context.extraction_system = system.get();
    return context;
  }
};

std::unique_ptr<Setup> BuildSetup(const Workload& workload, uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  const size_t threads = SetupThreads();
  ProcessCpuTimer total;
  {
    TraceSpan span("corpus.generate");
    ProcessCpuTimer timer;
    GeneratorOptions options;
    options.num_documents = workload.num_docs;
    options.seed = seed;
    setup->corpus = GenerateCorpus(options);
    setup->generate_s = timer.ElapsedSeconds();
  }
  {
    TraceSpan span("extract.train");
    ProcessCpuTimer timer;
    setup->system =
        TrainExtractionSystem(workload.relation, setup->corpus.shared_vocab());
    setup->train_s = timer.ElapsedSeconds();
  }
  {
    TraceSpan span("extract.outcomes");
    ProcessCpuTimer timer;
    setup->outcomes =
        ExtractionOutcomes::Compute(*setup->system, setup->corpus, threads);
    setup->outcomes_s = timer.ElapsedSeconds();
  }
  {
    TraceSpan span("text.featurize_pool");
    ProcessCpuTimer timer;
    setup->featurizer = std::make_unique<Featurizer>(&setup->corpus.vocab());
    setup->word_features =
        FeaturizePool(setup->corpus, *setup->featurizer, threads);
    setup->featurize_s = timer.ElapsedSeconds();
  }
  if (workload.access == AccessMode::kSearchInterface) {
    TraceSpan span("index.build");
    ProcessCpuTimer timer;
    setup->index = std::unique_ptr<CompactIndex>(new CompactIndex(
        BuildCompactPoolIndex(setup->corpus, setup->corpus.splits().test,
                              threads)));
    setup->timed_index = std::make_unique<TimedSearchIndex>(setup->index.get());
    setup->index_build_s = timer.ElapsedSeconds();
  }
  setup->total_s = total.ElapsedSeconds();
  return setup;
}

PipelineConfig MakeConfig(const Workload& workload, uint64_t seed,
                          size_t instance, size_t pool_size) {
  PipelineConfig config = PipelineConfig::Defaults(
      workload.ranker, SamplerKind::kSRS, workload.update,
      seed * 1000003ULL + 17 + instance * 7919ULL);
  config.access = workload.access;
  // The paper benches' budget (bench/harness.h): ~6% of the pool.
  config.sample_size = std::max<size_t>(300, pool_size * 6 / 100);
  return config;
}

/// The benchmark's one call into the pipeline.
PipelineResult RunPipeline(const SharedContext& context,
                           const PipelineConfig& config) {
  return AdaptiveExtractionPipeline::Run(context, config);
}

/// FNV-1a over the processing order, a separator, and the update
/// positions.
uint64_t Digest(const PipelineResult& result) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (DocId id : result.processing_order) mix(id);
  mix(~uint64_t{0});
  for (size_t position : result.update_positions) mix(position);
  return h;
}

/// Starts a fresh resident-memory high-water mark: returns the heap pages
/// that earlier set-ups and runs freed, then resets VmHWM to the current
/// RSS (Linux clear_refs "5"). The mark read after a run is that run's
/// peak over the inputs it needs, not the set-ups' temporaries.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// VmHWM of /proc/self/status in MB, or -1 when it cannot be read.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return -1.0;
}

/// Minimal JSON-object line writer (keys are fixed literals).
class JsonLine {
 public:
  explicit JsonLine(const char* kind) { Str("kind", kind); }
  JsonLine& Str(const char* key, const std::string& value) {
    Key(key);
    out_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }
  JsonLine& Num(const char* key, double value) {
    Key(key);
    AppendJsonNumber(&out_, value);
    return *this;
  }
  JsonLine& Int(const char* key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonLine& Bool(const char* key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  void Print() {
    std::printf("{%s}\n", out_.c_str());
    std::fflush(stdout);
  }

 private:
  void Key(const char* key) {
    if (!out_.empty()) out_ += ", ";
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }
  std::string out_;
};

/// A workload's inputs: one Setup per corpus.
using Setups = std::vector<std::unique_ptr<Setup>>;

Setups BuildSetups(const Workload& workload, uint64_t seed) {
  Setups setups;
  for (size_t corpus = 0; corpus < workload.corpora; ++corpus) {
    setups.push_back(BuildSetup(workload, seed + corpus * 1000003ULL));
  }
  return setups;
}

/// Prints one set-up record: each time summed over the workload's corpora.
void PrintSetups(const Setups& setups, size_t rep) {
  double total = 0, generate = 0, train = 0, outcomes = 0, featurize = 0,
         index_build = 0;
  size_t postings_bytes = 0;
  for (const auto& setup : setups) {
    total += setup->total_s;
    generate += setup->generate_s;
    train += setup->train_s;
    outcomes += setup->outcomes_s;
    featurize += setup->featurize_s;
    index_build += setup->index_build_s;
    if (setup->index != nullptr) {
      postings_bytes += setup->index->PostingsBytes();
    }
  }
  JsonLine("setup")
      .Int("rep", rep)
      .Num("total_s", total)
      .Num("corpus.generate_s", generate)
      .Num("extract.train_s", train)
      .Num("extract.outcomes_s", outcomes)
      .Num("text.featurize_pool_s", featurize)
      .Num("index.build_s", index_build)
      .Int("index.postings_bytes", postings_bytes)
      .Print();
}

/// Runs the pipeline once and prints its record. Returns false when the
/// run's own invariants (permutation of the pool, final recall 1) fail or
/// its peak RSS cannot be read;
/// run.py checks the cross-run and pinned values.
bool RunAndPrint(const Setups& setups, const Workload& workload,
                 uint64_t seed, size_t instance, bool traced,
                 const std::string& trace_file) {
  const Setup& setup = *setups[instance % setups.size()];
  const SharedContext context = setup.Context(workload);
  const PipelineConfig config =
      MakeConfig(workload, seed, instance, context.pool->size());
  if (setup.timed_index != nullptr) setup.timed_index->Reset();
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS (/proc/self/clear_refs)\n");
    return false;
  }

  WallTimer wall;
  ProcessCpuTimer cpu;
  const PipelineResult result = RunPipeline(context, config);
  const double cpu_s = cpu.ElapsedSeconds();
  const double wall_s = wall.ElapsedSeconds();
  const double peak_rss_mb = PeakRssMb();

  size_t dropped = 0;
  if (traced) {
    dropped = Tracer::Global().dropped_events();
    const Status status = Tracer::Global().StopAndExport(trace_file);
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.ToString().c_str());
      return false;
    }
  }

  std::vector<DocId> order = result.processing_order;
  std::vector<DocId> pool = *context.pool;
  std::sort(order.begin(), order.end());
  std::sort(pool.begin(), pool.end());
  const bool permutation = order == pool;
  size_t found = 0;
  for (uint8_t useful : result.processed_useful) found += useful;
  const bool full_recall =
      result.pool_useful > 0 && found == result.pool_useful;

  const MetricsSnapshot& m = result.metrics;
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, Digest(result));
  JsonLine("run")
      .Int("instance", instance)
      .Bool("traced", traced)
      .Str("trace_file", trace_file)
      .Num("wall_s", wall_s)
      .Num("cpu_s", cpu_s)
      .Num("loop_s", result.extract_wall_seconds)
      .Num("ranking_cpu_s", result.ranking_cpu_seconds)
      .Num("detector_cpu_s", result.detector_cpu_seconds)
      .Num("extract_cpu_s", result.extract_cpu_seconds)
      .Int("documents", result.processing_order.size())
      .Int("pool_size", result.pool_size)
      .Int("pool_useful", result.pool_useful)
      .Int("updates", result.update_positions.size())
      .Str("digest", digest)
      .Int("docs_to_recall50",
           DocsToReachRecall(result.processed_useful, result.pool_useful,
                             0.5))
      .Num("avg_precision",
           AveragePrecision(result.processed_useful, result.pool_useful))
      .Bool("permutation", permutation)
      .Bool("full_recall", full_recall)
      .Int("rerank.full_rescores", m.CounterOr("rerank.full_rescores"))
      .Int("rerank.delta_rescores", m.CounterOr("rerank.delta_rescores"))
      .Int("rerank.density_fallbacks",
           m.CounterOr("rerank.density_fallbacks"))
      .Int("learn.pegasos_steps", m.CounterOr("learn.pegasos_steps"))
      .Int("learn.l1_zero_clamps", m.CounterOr("learn.l1_zero_clamps"))
      .Int("detector.checks", m.CounterOr("detector.checks"))
      .Int("search_calls",
           setup.timed_index ? setup.timed_index->calls() : 0)
      .Int("search_hits", setup.timed_index ? setup.timed_index->hits() : 0)
      .Num("search_s", setup.timed_index ? setup.timed_index->seconds() : 0)
      .Num("peak_rss_mb", peak_rss_mb)
      .Int("dropped_events", dropped)
      .Print();
  return permutation && full_recall && peak_rss_mb > 0.0;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_e2e --workload NAME --seed N "
               "--seconds S [--trace-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_dir;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) return Usage("unknown --workload");
  if (!have_seed || seconds <= 0.0) {
    return Usage("--seed and --seconds > 0 are required");
  }
  const bool tracing = !trace_dir.empty();

  JsonLine("host")
      .Str("workload", workload->name)
      .Int("seed", seed)
      .Int("hardware_concurrency", std::thread::hardware_concurrency())
      .Int("setup_threads", SetupThreads())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", __VERSION__)
      .Int("observability", IE_OBSERVABILITY)
      .Print();

  Setups setups;
  bool ok = true;
  if (tracing) {
    // One trace session covers the set-up and the first run; the untraced
    // runs after it are the overhead baseline.
    if (!Tracer::Global().Start(kTraceBufferEvents)) {
      std::fprintf(stderr, "another trace session is active\n");
      return 1;
    }
    setups = BuildSetups(*workload, seed);
    PrintSetups(setups, 0);
    ok = RunAndPrint(setups, *workload, seed, 0, true,
                     trace_dir + "/trace.json");
  } else {
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      setups.clear();  // one set of inputs alive at a time
      setups = BuildSetups(*workload, seed);
      PrintSetups(setups, rep);
    }
  }

  // Cycle through the instances until the time is up, and at least once
  // through them plus one repeat, so every invocation re-checks that a
  // repeated run reproduces its output.
  WallTimer elapsed;
  size_t run = 0;
  do {
    ok = RunAndPrint(setups, *workload, seed, run % workload->instances,
                     false, "") &&
         ok;
    ++run;
  } while (elapsed.ElapsedSeconds() < seconds ||
           run <= workload->instances);
  return ok ? 0 : 3;
}
