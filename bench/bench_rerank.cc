// Microbenchmark for the re-rank engine (DESIGN.md §8) and the SoA
// hot-path kernels behind it (DESIGN.md §14).
//
// Two modes:
//
//  1. google-benchmark (default): the cost of re-ranking a large pending
//     pool after a post-warmup model update — one full rescoring pass plus
//     the heap rebuild — for RSVM-IE and BAgg-IE at several absorbed batch
//     sizes between updates.
//
//  2. perf trajectory (--out=BENCH_rerank.json): hand-timed single-thread
//     comparisons of the production hot paths against faithful in-bench
//     copies of the pre-SoA implementations (AoS pair layout, per-entry
//     bounds checks, unordered_map count/bigram tables). Emits JSON for CI
//     trend tracking (tools/bench_trend.py) with one acceptance gate:
//       featurize speedup      >= 1.5x  (arena + flat-hash featurizer vs
//                                        unordered_map reference)
//     The kernel row (kernels::GatherDot, the gather every rescoring pass
//     runs, vs an AoS reference over identically laid-out fresh copies) is
//     informational — the gather is memory-bound, so its margin is modest —
//     but its bitwise-identity check is mandatory: the optimizations must
//     not change a single float bit. Ranking cost is gated end to end by
//     perfbench (docs_per_cpu_s, with rerank.rank_s per layer).
//
// Environment knobs (on top of bench_common.h's):
//   IE_BENCH_POOL   pending-pool size for the engine (default 10000,
//                   clamped to the corpus test split)
//
//   bench_rerank [--out=BENCH_rerank.json] [--reps=7]
//                [--metrics-out=metrics.prom] [google-benchmark flags]
//
// With --metrics-out, the process-wide metrics registry (counters and
// latency histograms tallied by the engine hot paths during the run) is
// rendered as Prometheus text exposition to the given path on exit
// (validated by tools/report.py --validate-prom).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/metrics.h"
#include "harness.h"
#include "pipeline/rerank_engine.h"
#include "ranking/learned_rankers.h"
#include "text/sparse_kernels.h"

using namespace ie;
using namespace ie::bench;

namespace {

Harness* g_harness = nullptr;
std::vector<DocId> g_pool;
std::vector<LabeledExample> g_stream;

void BuildPoolAndStream() {
  const auto& test_pool = g_harness->test_pool();
  const size_t pool_size =
      std::min(EnvSize("IE_BENCH_POOL", 10000), test_pool.size());
  g_pool.assign(test_pool.begin(), test_pool.begin() + pool_size);
  const auto& outcomes = g_harness->world().outcome(RelationId::kPersonCharge);
  SharedContext ctx = g_harness->Context(RelationId::kPersonCharge);
  for (DocId id : g_pool) {
    g_stream.push_back(
        {(*ctx.word_features)[id], outcomes.useful(id) ? 1 : -1});
  }
}

template <typename Ranker>
std::unique_ptr<Ranker> WarmedRanker() {
  auto ranker = std::make_unique<Ranker>();
  std::vector<LabeledExample> sample(
      g_stream.begin(),
      g_stream.begin() + std::min<size_t>(400, g_stream.size()));
  ranker->TrainInitial(sample);
  return ranker;
}

// One timed iteration = one model update: absorb `batch` observations
// (untimed), then Rerank() the full pending pool. The engine is warmed with
// an initial pass, exactly like the pipeline's post-warmup state.
template <typename Ranker>
void RunUpdateBench(benchmark::State& state) {
  SharedContext ctx = g_harness->Context(RelationId::kPersonCharge);
  auto ranker = WarmedRanker<Ranker>();
  RerankEngine engine(ranker.get(), ctx.word_features, RerankOptions{});
  for (DocId doc : g_pool) engine.AddCandidate(doc);
  engine.Rerank();

  const size_t batch = static_cast<size_t>(state.range(0));
  size_t i = 400;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t b = 0; b < batch; ++b) {
      const auto& ex = g_stream[i++ % g_stream.size()];
      ranker->Observe(ex.features, ex.label > 0);
    }
    state.ResumeTiming();
    engine.Rerank();
  }
  state.counters["pool"] = static_cast<double>(g_pool.size());
  state.counters["passes"] = static_cast<double>(engine.full_rescores());
}

void BM_RsvmUpdateFull(benchmark::State& state) {
  RunUpdateBench<RsvmIeRanker>(state);
}
BENCHMARK(BM_RsvmUpdateFull)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_BaggUpdateFull(benchmark::State& state) {
  RunUpdateBench<BaggIeRanker>(state);
}
BENCHMARK(BM_BaggUpdateFull)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Perf trajectory (--out): production hot paths vs faithful pre-SoA
// reference implementations, single-threaded, best-of-reps wall time.
// ---------------------------------------------------------------------------

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

using AosVector = std::vector<std::pair<uint32_t, float>>;

// The pre-SoA WeightVector::Dot: iterate (id, value) pairs with a
// per-entry bounds check.
inline double RefDot(const std::vector<double>& w, const AosVector& x) {
  double dot = 0.0;
  for (const auto& [id, value] : x) {
    if (id >= w.size()) continue;
    dot += w[id] * static_cast<double>(value);
  }
  return dot;
}

// The pre-SoA Featurizer hot loop: unordered_map count accumulation,
// unordered_map bigram-id lookups (default identity hash on uint64_t — the
// clustering bug the flat hash's splitmix64 mixer fixes), heap-vector entry
// staging, FromUnsorted.
SparseVector RefFeaturize(
    const Document& doc,
    const std::unordered_map<uint64_t, uint32_t>& bigram_map, bool log_tf) {
  std::unordered_map<uint32_t, float> counts;
  for (const Sentence& sentence : doc.sentences) {
    for (size_t i = 0; i < sentence.tokens.size(); ++i) {
      counts[sentence.tokens[i]] += 1.0f;
      if (i + 1 < sentence.tokens.size()) {
        const uint64_t key =
            (static_cast<uint64_t>(sentence.tokens[i]) << 32) |
            static_cast<uint64_t>(sentence.tokens[i + 1]);
        counts[bigram_map.at(key)] += 1.0f;
      }
    }
  }
  std::vector<SparseVector::Entry> entries;
  entries.reserve(counts.size());
  // DETERMINISM: order-insensitive (FromUnsorted sorts entries by id).
  for (const auto& [id, tf] : counts) {
    entries.push_back({id, log_tf ? 1.0f + std::log(tf) : tf});
  }
  SparseVector v = SparseVector::FromUnsorted(std::move(entries));
  v.Normalize();
  return v;
}

struct TrajectoryResult {
  // Kernel comparison (per full pass over the pool).
  double kernel_reference_us = 0.0;
  double kernel_soa_us = 0.0;
  double kernel_speedup = 0.0;
  bool kernel_identical = false;
  // Featurize comparison (per document).
  size_t featurize_docs = 0;
  double featurize_reference_us = 0.0;
  double featurize_soa_us = 0.0;
  double featurize_speedup = 0.0;
  bool featurize_identical = false;
};

template <typename Fn>
double BestOfRepsSeconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    const double wall = timer.ElapsedSeconds();
    if (best == 0.0 || wall < best) best = wall;
  }
  return best;
}

void RunKernelTrajectory(int reps, TrajectoryResult* out) {
  SharedContext ctx = g_harness->Context(RelationId::kPersonCharge);
  auto ranker = WarmedRanker<RsvmIeRanker>();
  const WeightVector weights = ranker->ModelWeights();
  const std::vector<double>& w = weights.raw();

  // Both sides run over fresh copies allocated back-to-back in pool order,
  // so the comparison isolates layout + kernel code rather than allocation
  // age (the long-lived pool vectors are scattered across the heap; fresh
  // AoS copies racing them would mostly measure that scatter).
  std::vector<AosVector> aos;
  aos.reserve(g_pool.size());
  for (DocId id : g_pool) {
    const SparseVector& f = (*ctx.word_features)[id];
    AosVector v;
    v.reserve(f.size());
    for (const auto& [fid, value] : f) v.emplace_back(fid, value);
    aos.push_back(std::move(v));
  }
  std::vector<SparseVector> soa;
  soa.reserve(g_pool.size());
  for (DocId id : g_pool) soa.push_back((*ctx.word_features)[id]);

  double ref_dot_total = 0.0;
  const double ref_seconds = BestOfRepsSeconds(reps, [&] {
    double dot_total = 0.0;
    for (const AosVector& x : aos) dot_total += RefDot(w, x);
    benchmark::DoNotOptimize(dot_total);
    ref_dot_total = dot_total;
  });

  double soa_dot_total = 0.0;
  const double soa_seconds = BestOfRepsSeconds(reps, [&] {
    double dot_total = 0.0;
    for (const SparseVector& x : soa) {
      dot_total +=
          kernels::GatherDot(w.data(), w.size(), x.ids(), x.values(), x.size());
    }
    benchmark::DoNotOptimize(dot_total);
    soa_dot_total = dot_total;
  });

  out->kernel_identical = Bits(ref_dot_total) == Bits(soa_dot_total);
  out->kernel_reference_us = ref_seconds * 1e6;
  out->kernel_soa_us = soa_seconds * 1e6;
  out->kernel_speedup =
      soa_seconds > 0.0 ? ref_seconds / soa_seconds : 0.0;
  std::fprintf(stderr,
               "[bench_rerank] kernel pass over %zu docs: reference=%.0fus "
               "soa=%.0fus speedup=%.2fx identical=%s\n",
               g_pool.size(), out->kernel_reference_us, out->kernel_soa_us,
               out->kernel_speedup, out->kernel_identical ? "yes" : "NO");
}

void RunFeaturizeTrajectory(int reps, TrajectoryResult* out) {
  Corpus& corpus = g_harness->world().corpus;
  const size_t num_docs = std::min<size_t>(2000, g_pool.size());

  // A bigram featurizer so the trajectory covers the flat-hash bigram
  // cache, not just the count table. Warm serially (interns every bigram),
  // then snapshot the id map for the reference path — both timed loops do
  // pure lookups, the steady state after FeaturizePool's warm pass.
  FeaturizerOptions options;
  options.use_bigrams = true;
  Featurizer featurizer(&corpus.vocab(), options);
  std::unordered_map<uint64_t, uint32_t> bigram_map;
  for (size_t i = 0; i < num_docs; ++i) {
    const Document& doc = corpus.doc(g_pool[i]);
    featurizer.WarmBigrams(doc);
    for (const Sentence& sentence : doc.sentences) {
      for (size_t t = 0; t + 1 < sentence.tokens.size(); ++t) {
        const uint64_t key =
            (static_cast<uint64_t>(sentence.tokens[t]) << 32) |
            static_cast<uint64_t>(sentence.tokens[t + 1]);
        bigram_map.emplace(
            key,
            featurizer.BigramFeatureId(sentence.tokens[t],
                                       sentence.tokens[t + 1]));
      }
    }
  }

  // Bitwise-equivalence check (untimed): the arena path must reproduce the
  // unordered_map path feature for feature, bit for bit.
  bool identical = true;
  for (size_t i = 0; i < num_docs && identical; ++i) {
    const Document& doc = corpus.doc(g_pool[i]);
    const SparseVector a = featurizer.Featurize(doc);
    const SparseVector b =
        RefFeaturize(doc, bigram_map, featurizer.options().log_tf);
    if (a.size() != b.size()) {
      identical = false;
      break;
    }
    for (size_t j = 0; j < a.size(); ++j) {
      uint32_t bits_a = 0;
      uint32_t bits_b = 0;
      const float va = a.value(j);
      const float vb = b.value(j);
      std::memcpy(&bits_a, &va, sizeof(bits_a));
      std::memcpy(&bits_b, &vb, sizeof(bits_b));
      if (a.id(j) != b.id(j) || bits_a != bits_b) {
        identical = false;
        break;
      }
    }
  }

  const double ref_seconds = BestOfRepsSeconds(reps, [&] {
    size_t total = 0;
    for (size_t i = 0; i < num_docs; ++i) {
      total += RefFeaturize(corpus.doc(g_pool[i]), bigram_map,
                            featurizer.options().log_tf)
                   .size();
    }
    benchmark::DoNotOptimize(total);
  });
  const double soa_seconds = BestOfRepsSeconds(reps, [&] {
    size_t total = 0;
    for (size_t i = 0; i < num_docs; ++i) {
      total += featurizer.Featurize(corpus.doc(g_pool[i])).size();
    }
    benchmark::DoNotOptimize(total);
  });

  out->featurize_docs = num_docs;
  out->featurize_identical = identical;
  out->featurize_reference_us = ref_seconds * 1e6 / num_docs;
  out->featurize_soa_us = soa_seconds * 1e6 / num_docs;
  out->featurize_speedup =
      soa_seconds > 0.0 ? ref_seconds / soa_seconds : 0.0;
  std::fprintf(stderr,
               "[bench_rerank] featurize over %zu docs: reference=%.2fus/doc "
               "arena=%.2fus/doc speedup=%.2fx identical=%s\n",
               num_docs, out->featurize_reference_us, out->featurize_soa_us,
               out->featurize_speedup,
               out->featurize_identical ? "yes" : "NO");
}

constexpr double kSpeedupGate = 1.5;

int RunTrajectory(const std::string& out_path, int reps) {
  TrajectoryResult result;
  RunKernelTrajectory(reps, &result);
  RunFeaturizeTrajectory(reps, &result);

  const bool identical = result.kernel_identical && result.featurize_identical;
  const bool gate_passes =
      identical && result.featurize_speedup >= kSpeedupGate;
  std::fprintf(stderr,
               "[bench_rerank] gate (>=%.1fx, bit-identical): "
               "featurize=%.2fx (kernel=%.2fx info) -> %s\n",
               kSpeedupGate, result.featurize_speedup, result.kernel_speedup,
               gate_passes ? "PASS" : "FAIL");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"rerank\",\n  \"docs\": %zu,\n"
               "  \"pool\": %zu,\n  \"byte_identical\": %s,\n",
               NumDocs(), g_pool.size(), identical ? "true" : "false");
  std::fprintf(out,
               "  \"kernel\": {\"reference_us_per_pass\": %.1f, "
               "\"soa_us_per_pass\": %.1f, \"speedup\": %.3f},\n",
               result.kernel_reference_us, result.kernel_soa_us,
               result.kernel_speedup);
  std::fprintf(out,
               "  \"featurize\": {\"docs\": %zu, "
               "\"reference_us_per_doc\": %.3f, \"arena_us_per_doc\": %.3f, "
               "\"speedup\": %.3f},\n",
               result.featurize_docs, result.featurize_reference_us,
               result.featurize_soa_us, result.featurize_speedup);
  std::fprintf(out, "  \"gate_threshold\": %.2f,\n  \"gate\": \"%s\"\n}\n",
               kSpeedupGate, gate_passes ? "PASS" : "FAIL");
  std::fclose(out);
  return gate_passes ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string metrics_out_path;
  int reps = 7;
  // Strip trajectory flags before google-benchmark sees argv.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.substr(7).c_str()));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out_path = arg.substr(14);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  Harness harness({RelationId::kPersonCharge}, NumDocs());
  g_harness = &harness;
  BuildPoolAndStream();
  int status = 0;
  if (!out_path.empty()) {
    status = RunTrajectory(out_path, reps);
  } else {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  // Prometheus exposition of everything the run tallied into the global
  // registry (engine counters, kernel latency histograms with
  // p50/p90/p99).
  if (!metrics_out_path.empty()) {
    std::FILE* prom = std::fopen(metrics_out_path.c_str(), "w");
    if (prom == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out_path.c_str());
      return 2;
    }
    const std::string text = MetricsRegistry::Global().RenderPrometheus();
    std::fwrite(text.data(), 1, text.size(), prom);
    std::fclose(prom);
    std::fprintf(stderr, "[bench_rerank] metrics exposition -> %s\n",
                 metrics_out_path.c_str());
  }
  return status;
}
