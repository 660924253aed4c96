#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "eval/experiment.h"
#include "pipeline/factcrawl_pipeline.h"
#include "pipeline/rerank_engine.h"
#include "test_util.h"

namespace ie {
namespace {

PipelineConfig BaseConfig(RankerKind ranker, UpdateKind update,
                          uint64_t seed) {
  PipelineConfig config = PipelineConfig::Defaults(
      ranker, SamplerKind::kSRS, update, seed);
  config.sample_size = 120;
  return config;
}

// Invariants every full-access run must satisfy.
void CheckRunInvariants(const PipelineResult& result,
                        const SharedContext& context) {
  EXPECT_EQ(result.processing_order.size(), context.pool->size());
  EXPECT_EQ(result.processed_useful.size(), result.processing_order.size());

  // Every pool document processed exactly once.
  const std::set<DocId> pool_set(context.pool->begin(),
                                 context.pool->end());
  std::set<DocId> processed;
  for (DocId id : result.processing_order) {
    EXPECT_TRUE(pool_set.count(id) > 0);
    EXPECT_TRUE(processed.insert(id).second) << "processed twice: " << id;
  }

  // Verdicts match the cached outcomes.
  for (size_t i = 0; i < result.processing_order.size(); ++i) {
    EXPECT_EQ(result.processed_useful[i] != 0,
              context.outcomes->useful(result.processing_order[i]));
  }

  // Simulated cost: one charge per processed document.
  EXPECT_NEAR(result.extraction_seconds,
              context.relation->extraction_cost_seconds *
                  static_cast<double>(result.processing_order.size()),
              1e-6);

  // Update positions are strictly increasing and within range.
  for (size_t i = 1; i < result.update_positions.size(); ++i) {
    EXPECT_GT(result.update_positions[i], result.update_positions[i - 1]);
  }
  if (!result.update_positions.empty()) {
    EXPECT_LE(result.update_positions.back(),
              result.processing_order.size());
  }

  EXPECT_EQ(result.pool_useful,
            context.outcomes->CountUseful(*context.pool));
}

class PipelineRankerTest : public ::testing::TestWithParam<RankerKind> {};

TEST_P(PipelineRankerTest, FullAccessRunInvariants) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(GetParam(), UpdateKind::kNone, 11));
  CheckRunInvariants(result, context);
}

INSTANTIATE_TEST_SUITE_P(AllRankers, PipelineRankerTest,
                         ::testing::Values(RankerKind::kRandom,
                                           RankerKind::kPerfect,
                                           RankerKind::kBAggIE,
                                           RankerKind::kRSVMIE));

class PipelineDetectorTest : public ::testing::TestWithParam<UpdateKind> {};

TEST_P(PipelineDetectorTest, AdaptiveRunInvariants) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, GetParam(), 13));
  CheckRunInvariants(result, context);
  if (GetParam() == UpdateKind::kWindF) {
    EXPECT_GT(result.NumUpdates(), 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDetectors, PipelineDetectorTest,
                         ::testing::Values(UpdateKind::kWindF,
                                           UpdateKind::kFeatS,
                                           UpdateKind::kTopK,
                                           UpdateKind::kModC));

TEST(PipelineTest, DeterministicForSeed) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 17);
  const PipelineResult a = AdaptiveExtractionPipeline::Run(context, config);
  const PipelineResult b = AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_EQ(a.processing_order, b.processing_order);
  EXPECT_EQ(a.update_positions, b.update_positions);
}

TEST(PipelineTest, SeedChangesSampleOrder) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult a = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRandom, UpdateKind::kNone, 1));
  const PipelineResult b = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRandom, UpdateKind::kNone, 2));
  EXPECT_NE(a.processing_order, b.processing_order);
}

TEST(PipelineTest, PerfectBeatsRandomWhichIsNearChance) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCareer);
  const RunMetrics perfect = EvaluateRun(AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kPerfect, UpdateKind::kNone, 19)));
  const RunMetrics random = EvaluateRun(AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRandom, UpdateKind::kNone, 19)));
  EXPECT_GT(perfect.auc, 0.99);
  EXPECT_NEAR(random.auc, 0.5, 0.06);
}

TEST(PipelineTest, LearnedRankerBeatsRandom) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const RunMetrics learned = EvaluateRun(AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kNone, 23)));
  EXPECT_GT(learned.auc, 0.7);
}

TEST(PipelineTest, AdaptiveAtLeastMatchesBase) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  double base_auc = 0.0, adaptive_auc = 0.0;
  for (uint64_t seed : {29, 31, 37}) {
    base_auc += EvaluateRun(AdaptiveExtractionPipeline::Run(
                                context, BaseConfig(RankerKind::kRSVMIE,
                                                    UpdateKind::kNone, seed)))
                    .auc;
    adaptive_auc +=
        EvaluateRun(AdaptiveExtractionPipeline::Run(
                        context, BaseConfig(RankerKind::kRSVMIE,
                                            UpdateKind::kModC, seed)))
            .auc;
  }
  EXPECT_GE(adaptive_auc, base_auc - 0.05);
}

TEST(PipelineTest, ModelUpdatesActuallyFire) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 41));
  EXPECT_GT(result.NumUpdates(), 0u);
  EXPECT_EQ(result.features_added_per_update.size(), result.NumUpdates());
  EXPECT_GT(result.final_model_features, 10u);
}

TEST(PipelineTest, CqsSamplingRuns) {
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  const std::vector<std::string> queries = {"courtroom", "trial", "fraud",
                                            "prosecutor"};
  context.cqs_queries = &queries;
  PipelineConfig config = BaseConfig(RankerKind::kRSVMIE,
                                     UpdateKind::kNone, 43);
  config.sampler = SamplerKind::kCQS;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  CheckRunInvariants(result, context);
}

TEST(PipelineTest, SearchInterfaceAccessCoversPool) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kModC, 47);
  config.access = AccessMode::kSearchInterface;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  CheckRunInvariants(result, context);
}

// SearchIndex decorator that logs every (terms, k) request reaching the
// wrapped index.
class CountingIndex : public SearchIndex {
 public:
  explicit CountingIndex(const SearchIndex* inner) : inner_(inner) {}
  size_t NumDocs() const override { return inner_->NumDocs(); }
  size_t NumPostings() const override { return inner_->NumPostings(); }
  size_t DocFreq(TokenId term) const override {
    return inner_->DocFreq(term);
  }
  size_t PostingsBytes() const override { return inner_->PostingsBytes(); }
  std::vector<SearchHit> Search(const std::vector<TokenId>& terms,
                                size_t k) const override {
    calls_.emplace_back(terms, k);
    return inner_->Search(terms, k);
  }
  const std::vector<std::pair<std::vector<TokenId>, size_t>>& calls() const {
    return calls_;
  }

 private:
  const SearchIndex* inner_;
  mutable std::vector<std::pair<std::vector<TokenId>, size_t>> calls_;
};

TEST(PipelineTest, SearchInterfaceSendsEachQueryOncePerDepth) {
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  const CountingIndex counting(context.index);
  context.index = &counting;
  const PipelineConfig config = [] {
    PipelineConfig c = BaseConfig(RankerKind::kBAggIE, UpdateKind::kWindF, 1);
    c.access = AccessMode::kSearchInterface;
    return c;
  }();
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  CheckRunInvariants(result, context);
  // Many updates, each refreshing with the model's top features: the same
  // terms come up again and again, and must not be searched again unless
  // a request is deeper than every earlier one for that query.
  ASSERT_GT(result.NumUpdates(), 10u);
  const auto& calls = counting.calls();
  ASSERT_FALSE(calls.empty());
  for (size_t i = 0; i < calls.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (calls[j].first == calls[i].first) {
        ASSERT_GT(calls[i].second, calls[j].second)
            << "call " << i << " repeats call " << j
            << " without searching deeper";
      }
    }
  }
}

TEST(PipelineTest, OverheadAccountingNonNegative) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kTopK, 53));
  EXPECT_GT(result.ranking_cpu_seconds, 0.0);
  EXPECT_GT(result.detector_cpu_seconds, 0.0);
  EXPECT_GT(result.TotalSeconds(), result.extraction_seconds);
}

// ---- FactCrawl pipelines ---------------------------------------------------

TEST(FactCrawlPipelineTest, FcRunInvariants) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  FactCrawlConfig config;
  config.sample_size = 120;
  config.seed = 59;
  const PipelineResult result = FactCrawlPipeline::Run(context, config);
  CheckRunInvariants(result, context);
  EXPECT_EQ(result.NumUpdates(), 0u);  // FC never re-ranks
  EXPECT_GE(result.warmup_documents, 120u);  // sample + query evaluation
}

TEST(FactCrawlPipelineTest, AdaptiveFcReranks) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  FactCrawlConfig config;
  config.adaptive = true;
  config.sample_size = 120;
  config.rerank_interval = 150;
  config.seed = 61;
  const PipelineResult result = FactCrawlPipeline::Run(context, config);
  CheckRunInvariants(result, context);
  EXPECT_GT(result.NumUpdates(), 0u);
}

TEST(FactCrawlPipelineTest, FcBeatsRandomOnTopicalRelation) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  FactCrawlConfig config;
  config.sample_size = 120;
  config.seed = 67;
  // The shared test pool is small; give FC paper-like absolute retrieval
  // depth instead of the pool-proportional auto depth.
  config.factcrawl.retrieved_per_query = 200;
  const RunMetrics fc = EvaluateRun(FactCrawlPipeline::Run(context, config));
  EXPECT_GT(fc.auc, 0.6);
}

// PipelineConfig::Defaults must give the two learned rankers distinct Mod-C
// trigger angles (the paper calibrates 30 deg for BAgg-IE vs 5 deg for
// RSVM-IE; a refactor once collapsed both arms of the conditional to the
// same constant).
TEST(RerankConfigTest, ModCAlphaDefaultsDifferPerRanker) {
  const PipelineConfig bagg = PipelineConfig::Defaults(
      RankerKind::kBAggIE, SamplerKind::kSRS, UpdateKind::kModC, 1);
  const PipelineConfig rsvm = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 1);
  EXPECT_NE(bagg.modc.alpha_degrees, rsvm.modc.alpha_degrees);
  // The committee swings through wider angles per absorbed batch, so its
  // trigger must sit above the RSVM-IE one (paper Section 4.2 ordering).
  EXPECT_GT(bagg.modc.alpha_degrees, rsvm.modc.alpha_degrees);
}

// Non-adaptive runs must not buffer processed examples at all — the buffer
// only exists to hand absorbed documents to the detector at the next
// update, and kNone never updates. Guards against re-introducing unbounded
// feature-vector accumulation.
TEST(RerankBufferTest, NonAdaptiveRunKeepsNoExampleBuffer) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  const PipelineResult result = AdaptiveExtractionPipeline::Run(
      context, BaseConfig(RankerKind::kRSVMIE, UpdateKind::kNone, 11));
  EXPECT_EQ(result.peak_buffer_examples(), 0u);
  EXPECT_EQ(result.NumUpdates(), 0u);
}

TEST(RerankBufferTest, AdaptiveRunBuffersBetweenUpdates) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config =
      BaseConfig(RankerKind::kRSVMIE, UpdateKind::kWindF, 11);
  config.windf_updates = 150;
  const PipelineResult result =
      AdaptiveExtractionPipeline::Run(context, config);
  EXPECT_GT(result.NumUpdates(), 0u);
  // The buffer drains at every update, so its peak is bounded by the
  // largest between-updates interval, not the pool size.
  EXPECT_GT(result.peak_buffer_examples(), 0u);
  EXPECT_LT(result.peak_buffer_examples(), context.pool->size() / 2);
}

// ---- RerankEngine frontier contract ------------------------------------
// The engine alone, scored through a score_override over a mutable table:
// what the pipeline loop relies on when it pops one document at a time and
// re-ranks on updates.

class RerankEngineTest : public ::testing::Test {
 protected:
  RerankEngineTest()
      : features_(16),
        scores_(16, 0.0),
        engine_(nullptr, &features_, RerankOptions{}, [this](DocId doc) {
          ++score_calls_;
          return scores_[doc];
        }) {}

  std::vector<DocId> PopAll() {
    std::vector<DocId> popped;
    for (DocId doc = 0; engine_.PopNext(&doc);) popped.push_back(doc);
    return popped;
  }

  std::vector<SparseVector> features_;
  std::vector<double> scores_;
  size_t score_calls_ = 0;
  RerankEngine engine_;
};

TEST_F(RerankEngineTest, EqualScoresPopInInsertionOrder) {
  scores_[3] = 2.0;
  scores_[8] = 2.0;
  for (DocId doc : {5u, 3u, 9u, 8u, 0u}) engine_.AddCandidate(doc);
  engine_.Rerank();
  // Higher score first; ties keep insertion order.
  EXPECT_EQ(PopAll(), (std::vector<DocId>{3, 8, 5, 9, 0}));
}

TEST_F(RerankEngineTest, CandidateAddedAfterRerankWaitsForNextRerank) {
  scores_[1] = 1.0;
  scores_[2] = 2.0;
  scores_[7] = 9.0;
  engine_.AddCandidate(1);
  engine_.AddCandidate(2);
  engine_.Rerank();
  engine_.AddCandidate(7);  // best score, but not yet on the frontier
  EXPECT_EQ(engine_.pending(), 3u);
  EXPECT_EQ(PopAll(), (std::vector<DocId>{2, 1}));
  EXPECT_EQ(engine_.pending(), 1u);
  engine_.Rerank();
  EXPECT_EQ(PopAll(), (std::vector<DocId>{7}));
}

TEST_F(RerankEngineTest, PopNextReturnsFalseWhenPoolExhausted) {
  DocId doc = 99;
  EXPECT_FALSE(engine_.PopNext(&doc));  // never ranked
  engine_.AddCandidate(4);
  engine_.Rerank();
  EXPECT_TRUE(engine_.PopNext(&doc));
  EXPECT_EQ(doc, 4u);
  doc = 99;
  EXPECT_FALSE(engine_.PopNext(&doc));
  EXPECT_EQ(doc, 99u);  // untouched on false
  engine_.Rerank();     // nothing pending: still exhausted
  EXPECT_FALSE(engine_.PopNext(&doc));
  EXPECT_EQ(engine_.pending(), 0u);
}

TEST_F(RerankEngineTest, PendingAndFullRescoresCount) {
  for (DocId doc = 0; doc < 6; ++doc) {
    scores_[doc] = static_cast<double>(doc);
    engine_.AddCandidate(doc);
  }
  EXPECT_EQ(engine_.pending(), 6u);
  EXPECT_EQ(engine_.full_rescores(), 0u);
  engine_.Rerank();
  EXPECT_EQ(engine_.full_rescores(), 1u);
  EXPECT_EQ(score_calls_, 6u);  // one score per pending candidate
  DocId doc = 0;
  ASSERT_TRUE(engine_.PopNext(&doc));
  EXPECT_EQ(doc, 5u);
  ASSERT_TRUE(engine_.PopNext(&doc));
  EXPECT_EQ(doc, 4u);
  EXPECT_EQ(engine_.pending(), 4u);
  // A model update reverses the order; the rescore covers only the four
  // documents still pending.
  for (DocId d = 0; d < 6; ++d) scores_[d] = -static_cast<double>(d);
  engine_.Rerank();
  EXPECT_EQ(engine_.full_rescores(), 2u);
  EXPECT_EQ(score_calls_, 10u);
  EXPECT_EQ(PopAll(), (std::vector<DocId>{0, 1, 2, 3}));
  EXPECT_EQ(engine_.pending(), 0u);
}

}  // namespace
}  // namespace ie
