// Parallelism and live extraction (DESIGN.md §8, §9): runs are
// byte-identical at every scoring_threads setting across rankers,
// detectors and access modes; the threaded set-up passes (outcome cache,
// pool featurization, idf) match their serial runs exactly; and live
// per-document extraction reproduces the cached-outcome run byte for byte.
#include <gtest/gtest.h>

#include <vector>

#include "pipeline/pipeline.h"
#include "test_util.h"

namespace ie {
namespace {

// ---- Run comparison ---------------------------------------------------------

void ExpectSameRun(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.processing_order, b.processing_order);
  EXPECT_EQ(a.processed_useful, b.processed_useful);
  EXPECT_EQ(a.update_positions, b.update_positions);
  EXPECT_EQ(a.warmup_documents, b.warmup_documents);
  EXPECT_EQ(a.pool_size, b.pool_size);
  EXPECT_EQ(a.pool_useful, b.pool_useful);
  EXPECT_DOUBLE_EQ(a.extraction_seconds, b.extraction_seconds);
  EXPECT_EQ(a.full_rescores(), b.full_rescores());
  EXPECT_EQ(a.peak_buffer_examples(), b.peak_buffer_examples());
  EXPECT_EQ(a.final_model_features, b.final_model_features);
  EXPECT_EQ(a.features_added_per_update, b.features_added_per_update);
  EXPECT_EQ(a.features_removed_per_update, b.features_removed_per_update);
}

PipelineConfig ParallelConfig(RankerKind ranker, UpdateKind update,
                              uint64_t seed) {
  PipelineConfig config =
      PipelineConfig::Defaults(ranker, SamplerKind::kSRS, update, seed);
  config.sample_size = 120;
  return config;
}

// ---- Threaded re-rank -------------------------------------------------------
// The golden matrix (determinism_golden_test.cc) covers the learned rankers
// with Mod-C and Top-K under full access; these cover the other detectors,
// the Random and Perfect rankers, and the search-interface scenario.

struct MatrixCase {
  RankerKind ranker;
  UpdateKind update;
  uint64_t seed;
};

class ExtractParallelMatrixTest
    : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ExtractParallelMatrixTest, ByteIdenticalAcrossThreadCounts) {
  const MatrixCase param = GetParam();
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(param.ranker, param.update, param.seed);
  const PipelineResult serial =
      AdaptiveExtractionPipeline::Run(context, config);
  for (size_t threads : {2u, 8u}) {
    config.scoring_threads = threads;
    ExpectSameRun(serial, AdaptiveExtractionPipeline::Run(context, config));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankersAndDetectors, ExtractParallelMatrixTest,
    ::testing::Values(
        MatrixCase{RankerKind::kRSVMIE, UpdateKind::kModC, 101},
        MatrixCase{RankerKind::kRSVMIE, UpdateKind::kFeatS, 103},
        MatrixCase{RankerKind::kBAggIE, UpdateKind::kModC, 107},
        MatrixCase{RankerKind::kBAggIE, UpdateKind::kFeatS, 109},
        MatrixCase{RankerKind::kRSVMIE, UpdateKind::kModC, 113},
        MatrixCase{RankerKind::kRandom, UpdateKind::kNone, 127},
        MatrixCase{RankerKind::kPerfect, UpdateKind::kNone, 131}));

TEST(ExtractParallelTest, SearchInterfaceByteIdentical) {
  // Search-interface refreshes add candidates between threaded passes.
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 139);
  config.access = AccessMode::kSearchInterface;
  const PipelineResult serial =
      AdaptiveExtractionPipeline::Run(context, config);
  config.scoring_threads = 8;
  ExpectSameRun(serial, AdaptiveExtractionPipeline::Run(context, config));
}

// ---- Live extraction --------------------------------------------------------

TEST(ExtractParallelTest, LiveExtractionMatchesCachedOutcomes) {
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      ParallelConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 151);
  const PipelineResult cached =
      AdaptiveExtractionPipeline::Run(context, config);
  context.extraction_system = &test::SharedSystem(RelationId::kPersonCharge);
  const PipelineResult live =
      AdaptiveExtractionPipeline::Run(context, config);
  ExpectSameRun(cached, live);
  // Live extraction is real per-document work, charged to the run.
  EXPECT_GT(live.extract_cpu_seconds, 0.0);
}

TEST(ExtractParallelTest, ParallelOutcomeComputeMatchesSerial) {
  const Corpus& corpus = test::SharedCorpus();
  const ExtractionSystem& system =
      test::SharedSystem(RelationId::kPersonCharge);
  const ExtractionOutcomes serial = ExtractionOutcomes::Compute(
      system, corpus);
  const ExtractionOutcomes parallel = ExtractionOutcomes::Compute(
      system, corpus, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (DocId id = 0; id < corpus.size(); ++id) {
    ASSERT_EQ(serial.useful(id), parallel.useful(id)) << "doc " << id;
    ASSERT_EQ(serial.tuples(id).size(), parallel.tuples(id).size())
        << "doc " << id;
    ASSERT_EQ(serial.AttributeValues(id), parallel.AttributeValues(id))
        << "doc " << id;
  }
}

TEST(ExtractParallelTest, ParallelFeaturizePoolMatchesSerial) {
  const Corpus& corpus = test::SharedCorpus();
  // Fresh featurizers with bigrams on: the bigram-id cache and its serial
  // warm pass must give parallel runs the exact serial intern order.
  FeaturizerOptions options;
  options.use_bigrams = true;
  Featurizer serial_featurizer(&const_cast<Corpus&>(corpus).vocab(), options);
  const std::vector<SparseVector> serial =
      FeaturizePool(corpus, serial_featurizer);
  Featurizer parallel_featurizer(&const_cast<Corpus&>(corpus).vocab(),
                                 options);
  const std::vector<SparseVector> parallel =
      FeaturizePool(corpus, parallel_featurizer, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size()) << "doc " << i;
    for (size_t j = 0; j < serial[i].size(); ++j) {
      ASSERT_EQ(serial[i].id(j), parallel[i].id(j));
      ASSERT_EQ(serial[i].value(j), parallel[i].value(j));
    }
  }
}

TEST(ExtractParallelTest, ParallelIdfMatchesSerial) {
  const Corpus& corpus = test::SharedCorpus();
  const std::vector<float> serial = ComputeIdf(corpus);
  const std::vector<float> parallel = ComputeIdf(corpus, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "token " << i;
  }
}

}  // namespace
}  // namespace ie
