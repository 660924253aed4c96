// TSan-targeted stress tests: hammer ParallelFor under contention and drive
// the parallel re-rank path repeatedly. These tests are expected to pass
// under -DIE_SANITIZE=thread (tsan preset) as well as the default build;
// they are the gate for future scaling work on top of the threading.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/sync.h"
#include "eval/experiment.h"
#include "pipeline/pipeline.h"
#include "test_util.h"

namespace ie {
namespace {

// Back-to-back ParallelFor rounds over shared atomics: exercises thread
// creation/join churn and contended fetch_add across rounds.
TEST(ParallelStressTest, RepeatedContendedCounters) {
  constexpr size_t kRounds = 50;
  constexpr size_t kN = 512;
  std::vector<std::atomic<uint32_t>> counters(kN);
  std::atomic<uint64_t> total{0};
  for (size_t round = 0; round < kRounds; ++round) {
    ParallelFor(kN, 8, [&](size_t i) {
      counters[i].fetch_add(1, std::memory_order_relaxed);
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counters[i].load(), kRounds) << "i=" << i;
  }
  EXPECT_EQ(total.load(), kRounds * (kN * (kN - 1) / 2));
}

// Mutex-guarded aggregation: TSan sees the lock pattern, and the aggregate
// must be exact regardless of interleaving.
TEST(ParallelStressTest, MutexAggregationIsExact) {
  constexpr size_t kN = 10000;
  Mutex mu;
  uint64_t sum = 0;
  ParallelFor(kN, 8, [&](size_t i) {
    MutexLock lock(mu);
    sum += i;
  });
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

// Disjoint slot writes with no synchronization: the core contract the
// pipeline's bulk scoring relies on. Any overlap is a TSan race.
TEST(ParallelStressTest, DisjointSlotWritesRaceFree) {
  constexpr size_t kRounds = 20;
  constexpr size_t kN = 4096;
  std::vector<uint64_t> slots(kN, 0);
  for (size_t round = 0; round < kRounds; ++round) {
    ParallelFor(kN, 8, [&](size_t i) { slots[i] += i + round; });
  }
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(slots[i], kRounds * i + kRounds * (kRounds - 1) / 2);
  }
}

// Varying thread counts against the same workload: block partitioning must
// cover every index exactly once for ragged and even splits alike.
TEST(ParallelStressTest, ThreadCountSweepCoversAll) {
  constexpr size_t kN = 1009;  // prime
  for (size_t threads : {2u, 3u, 4u, 7u, 8u, 16u, 64u}) {
    std::vector<std::atomic<uint8_t>> hits(kN);
    ParallelFor(kN, threads, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

// Exceptions under churn: repeated throwing rounds must neither terminate
// nor leak threads (TSan reports leaked threads at exit).
TEST(ParallelStressTest, ExceptionChurn) {
  for (int round = 0; round < 30; ++round) {
    std::atomic<size_t> visited{0};
    try {
      ParallelFor(256, 8, [&](size_t i) {
        if (i % 97 == 13) throw std::runtime_error("churn");
        visited.fetch_add(1, std::memory_order_relaxed);
      });
      FAIL() << "expected throw";
    } catch (const std::runtime_error&) {
      EXPECT_GT(visited.load(), 0u);
    }
  }
}

// The real consumer: the pipeline's threaded bulk re-rank. Scored slots are
// written concurrently, then heaped into the frontier; the result must be
// byte-identical to the serial run, every time, under contention.
TEST(ParallelStressTest, ThreadedRerankMatchesSerialRepeatedly) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 131);
  config.sample_size = 120;
  const PipelineResult serial =
      AdaptiveExtractionPipeline::Run(context, config);
  for (size_t threads : {2u, 4u, 8u}) {
    config.scoring_threads = threads;
    const PipelineResult threaded =
        AdaptiveExtractionPipeline::Run(context, config);
    EXPECT_EQ(serial.processing_order, threaded.processing_order)
        << "threads=" << threads;
    EXPECT_EQ(serial.update_positions, threaded.update_positions)
        << "threads=" << threads;
    EXPECT_EQ(EvaluateRun(serial).auc, EvaluateRun(threaded).auc)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ie
