#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/ordered.h"
#include "common/rng.h"
#include "learn/bagging.h"
#include "learn/binary_svm.h"
#include "learn/elastic_net_sgd.h"
#include "learn/feature_selection.h"
#include "learn/one_class_svm.h"
#include "learn/rank_svm.h"

namespace ie {
namespace {

SparseVector Vec(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromUnsorted(std::move(entries));
}

// Synthetic linearly separable task: positive docs use features {0,1},
// negative docs use features {2,3}, with shared noise feature 4.
struct SeparableData {
  std::vector<LabeledExample> examples;

  explicit SeparableData(size_t n, uint64_t seed = 1) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const bool positive = i % 2 == 0;
      std::vector<SparseVector::Entry> entries;
      entries.emplace_back(positive ? 0 : 2,
                           0.5f + 0.5f * static_cast<float>(rng.NextDouble()));
      entries.emplace_back(positive ? 1 : 3,
                           0.5f + 0.5f * static_cast<float>(rng.NextDouble()));
      entries.emplace_back(4, static_cast<float>(rng.NextDouble()));
      SparseVector v = Vec(std::move(entries));
      v.Normalize();
      examples.push_back({std::move(v), positive ? 1 : -1});
    }
  }
};

// ---- ElasticNetSgd -------------------------------------------------------

TEST(ElasticNetSgdTest, InitialScoreIsZero) {
  ElasticNetSgd sgd;
  EXPECT_DOUBLE_EQ(sgd.Score(Vec({{0, 1.0f}})), 0.0);
  EXPECT_EQ(sgd.steps(), 0u);
}

TEST(ElasticNetSgdTest, StepMovesScoreTowardLabel) {
  ElasticNetSgd sgd({.lambda_all = 0.1, .lambda_l2_share = 1.0});
  const SparseVector x = Vec({{0, 1.0f}});
  EXPECT_TRUE(sgd.Step(x, 1));  // margin 0 < 1: violation
  EXPECT_GT(sgd.Score(x), 0.0);
}

TEST(ElasticNetSgdTest, MarginOscillatesAroundOneOnRepeatedExample) {
  // Pegasos on a single repeated example converges to margin ~1/λ2eff with
  // the hinge active only part of the time: late steps must include some
  // satisfied margins (no gradient).
  ElasticNetSgd sgd({.lambda_all = 0.5, .lambda_l2_share = 1.0});
  const SparseVector x = Vec({{0, 1.0f}});
  for (int i = 0; i < 300; ++i) sgd.Step(x, 1);
  int violations = 0;
  for (int i = 0; i < 100; ++i) violations += sgd.Step(x, 1);
  EXPECT_LT(violations, 100);
  EXPECT_NEAR(sgd.Score(x), 1.0, 1.2);
}

TEST(ElasticNetSgdTest, LearnsSeparableProblem) {
  ElasticNetSgd sgd({.lambda_all = 0.05, .lambda_l2_share = 0.99});
  SeparableData data(400);
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (const auto& ex : data.examples) sgd.Step(ex.features, ex.label);
  }
  size_t correct = 0;
  for (const auto& ex : data.examples) {
    const double score = sgd.Score(ex.features);
    correct += (score > 0) == (ex.label > 0);
  }
  EXPECT_GT(static_cast<double>(correct) / data.examples.size(), 0.95);
}

TEST(ElasticNetSgdTest, L1ProducesSparserModelThanL2) {
  // Many irrelevant noise features: the elastic net must zero (many of)
  // them while pure ℓ2 keeps them merely small.
  Rng rng(7);
  std::vector<LabeledExample> data;
  for (int i = 0; i < 600; ++i) {
    const bool positive = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    entries.emplace_back(positive ? 0 : 1, 1.0f);
    for (int k = 0; k < 4; ++k) {
      entries.emplace_back(2 + rng.NextBounded(40),
                           0.3f * static_cast<float>(rng.NextDouble()));
    }
    SparseVector v = Vec(std::move(entries));
    v.Normalize();
    data.push_back({std::move(v), positive ? 1 : -1});
  }
  ElasticNetSgd pure_l2({.lambda_all = 0.05, .lambda_l2_share = 1.0});
  ElasticNetSgd elastic({.lambda_all = 0.05, .lambda_l2_share = 0.2});
  for (const auto& ex : data) {
    pure_l2.Step(ex.features, ex.label);
    elastic.Step(ex.features, ex.label);
  }
  EXPECT_LT(elastic.NonZeroCount(1e-6), pure_l2.NonZeroCount(1e-6));
  // Both still separate the signal features.
  EXPECT_GT(elastic.Score(data[0].features), elastic.Score(data[1].features));
}

TEST(ElasticNetSgdTest, DenseWeightsMatchScores) {
  ElasticNetSgd sgd({.lambda_all = 0.1, .lambda_l2_share = 0.9});
  SeparableData data(100, 3);
  for (const auto& ex : data.examples) sgd.Step(ex.features, ex.label);
  const WeightVector w = sgd.DenseWeights();
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(w.Dot(data.examples[i].features),
                sgd.Score(data.examples[i].features), 1e-9);
  }
}

TEST(ElasticNetSgdTest, PairStepPrefersPositive) {
  ElasticNetSgd sgd({.lambda_all = 0.1, .lambda_l2_share = 0.99});
  const SparseVector pos = Vec({{0, 1.0f}});
  const SparseVector neg = Vec({{1, 1.0f}});
  for (int i = 0; i < 50; ++i) sgd.PairStep(pos, neg);
  EXPECT_GT(sgd.Score(pos), sgd.Score(neg));
}

TEST(ElasticNetSgdTest, ForcedStepAppliesGradient) {
  ElasticNetSgd sgd;
  const SparseVector x = Vec({{0, 1.0f}});
  sgd.ForcedStep(x, 1.0);
  EXPECT_GT(sgd.Score(x), 0.0);
  const double before = sgd.Score(x);
  sgd.ForcedStep(SparseVector(), 0.0);  // decay-only step
  EXPECT_LT(sgd.Score(x), before);
}

TEST(ElasticNetSgdTest, StepClampKeepsLearningRateAlive) {
  ElasticNetOptions clamped{.lambda_all = 0.1,
                            .lambda_l2_share = 1.0,
                            .step_offset = 2.0,
                            .step_clamp = 100};
  ElasticNetOptions unclamped{.lambda_all = 0.1, .lambda_l2_share = 1.0};
  ElasticNetSgd a(clamped), b(unclamped);
  const SparseVector warm = Vec({{0, 1.0f}});
  for (int i = 0; i < 5000; ++i) {
    a.ForcedStep(warm, 0.0);
    b.ForcedStep(warm, 0.0);
  }
  const SparseVector fresh = Vec({{1, 1.0f}});
  a.ForcedStep(fresh, 1.0);
  b.ForcedStep(fresh, 1.0);
  // The clamped learner still takes meaningful steps late in the run.
  EXPECT_GT(a.Score(fresh), 10.0 * b.Score(fresh));
}

TEST(ElasticNetSgdTest, FactoredCommitDeltaTracksScores) {
  // The incremental re-rank engine advances cached margins m = w·x and sign
  // masses z = Σ sign(w)·x through the factored delta of CommitAll():
  //   m' = scale·m − penalty·z + margin_correction·x
  //   z' = z + sign_correction·x
  // Verify that against direct scoring with the committed dense weights.
  ElasticNetSgd sgd({.lambda_all = 0.05, .lambda_l2_share = 0.9});
  SeparableData data(200, 17);
  for (size_t i = 0; i < 80; ++i) {
    sgd.Step(data.examples[i].features, data.examples[i].label);
  }
  sgd.CommitAll();  // baseline snapshot
  const WeightVector w1 = sgd.DenseWeights();

  std::vector<double> m, z;
  for (size_t i = 0; i < 20; ++i) {
    m.push_back(w1.Dot(data.examples[i].features));
    z.push_back(w1.SignMass(data.examples[i].features));
  }

  for (size_t i = 80; i < 200; ++i) {
    sgd.Step(data.examples[i].features, data.examples[i].label);
  }
  const FactoredWeightDelta delta = sgd.CommitAll();
  const WeightVector w2 = sgd.DenseWeights();
  EXPECT_FALSE(delta.identity());

  for (size_t i = 0; i < 20; ++i) {
    const SparseVector& x = data.examples[i].features;
    const double advanced = delta.scale * m[i] - delta.penalty * z[i] +
                            DeltaDot(delta.margin_correction, x);
    EXPECT_NEAR(advanced, w2.Dot(x), 1e-10) << "doc " << i;
    const double sign_advanced = z[i] + DeltaDot(delta.sign_correction, x);
    EXPECT_NEAR(sign_advanced, w2.SignMass(x), 1e-12) << "doc " << i;
  }
}

TEST(ElasticNetSgdTest, CommitAllIsIdempotentIdentity) {
  ElasticNetSgd sgd({.lambda_all = 0.05, .lambda_l2_share = 0.9});
  SeparableData data(40, 3);
  for (const auto& ex : data.examples) sgd.Step(ex.features, ex.label);
  sgd.CommitAll();
  // No steps between commits: the delta must be the exact identity.
  const FactoredWeightDelta delta = sgd.CommitAll();
  EXPECT_TRUE(delta.identity());
}

TEST(ElasticNetSgdTest, CopyIsIndependent) {
  ElasticNetSgd a({.lambda_all = 0.1, .lambda_l2_share = 1.0});
  const SparseVector x = Vec({{0, 1.0f}});
  a.Step(x, 1);
  const double a_score = a.Score(x);
  ElasticNetSgd b = a;
  EXPECT_DOUBLE_EQ(b.Score(x), a_score);
  b.Step(x, 1);
  b.Step(x, 1);
  // Stepping the copy must not disturb the original.
  EXPECT_DOUBLE_EQ(a.Score(x), a_score);
  EXPECT_NE(a.steps(), b.steps());
  EXPECT_NE(b.Score(x), a_score);
}

// ---- OnlineBinarySvm ------------------------------------------------------

TEST(OnlineBinarySvmTest, LearnsSeparableTask) {
  OnlineBinarySvm svm({.lambda_all = 0.05, .lambda_l2_share = 0.99});
  SeparableData data(400, 11);
  Rng rng(5);
  svm.TrainBatch(data.examples, 4, &rng);
  size_t correct = 0;
  for (const auto& ex : data.examples) {
    correct += svm.Predict(ex.features) == (ex.label > 0);
  }
  EXPECT_GT(static_cast<double>(correct) / data.examples.size(), 0.95);
}

TEST(OnlineBinarySvmTest, ConfidenceIsSigmoidOfMargin) {
  OnlineBinarySvm svm;
  SeparableData data(50, 13);
  Rng rng(5);
  svm.TrainBatch(data.examples, 2, &rng);
  for (size_t i = 0; i < 5; ++i) {
    const double margin = svm.Margin(data.examples[i].features);
    const double conf = svm.Confidence(data.examples[i].features);
    EXPECT_NEAR(conf, 1.0 / (1.0 + std::exp(-margin)), 1e-12);
    EXPECT_GT(conf, 0.0);
    EXPECT_LT(conf, 1.0);
  }
}

TEST(OnlineBinarySvmTest, BiasLearnsSkewedPrior) {
  // All-positive data should push the bias up.
  OnlineBinarySvm svm;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    svm.Update(Vec({{static_cast<uint32_t>(i % 7), 1.0f}}), 1);
  }
  EXPECT_GT(svm.bias(), 0.0);
}

// ---- OnlineRankSvm ---------------------------------------------------------

TEST(OnlineRankSvmTest, RanksUsefulAboveUseless) {
  OnlineRankSvm svm({.sgd = {.lambda_all = 0.1, .lambda_l2_share = 0.99}},
                    3);
  SeparableData data(300, 17);
  for (const auto& ex : data.examples) {
    svm.Observe(ex.features, ex.label > 0);
  }
  svm.TrainPairs(2000);
  double pos_mean = 0.0, neg_mean = 0.0;
  size_t pos_n = 0, neg_n = 0;
  for (const auto& ex : data.examples) {
    if (ex.label > 0) {
      pos_mean += svm.Score(ex.features);
      ++pos_n;
    } else {
      neg_mean += svm.Score(ex.features);
      ++neg_n;
    }
  }
  EXPECT_GT(pos_mean / pos_n, neg_mean / neg_n);
}

TEST(OnlineRankSvmTest, NoTrainingWithoutBothClasses) {
  OnlineRankSvm svm({}, 3);
  svm.Observe(Vec({{0, 1.0f}}), true);
  svm.Observe(Vec({{1, 1.0f}}), true);
  EXPECT_EQ(svm.steps(), 0u);  // no useless docs yet: no pairs possible
  svm.Observe(Vec({{2, 1.0f}}), false);
  EXPECT_GT(svm.steps(), 0u);
}

TEST(OnlineRankSvmTest, ReservoirCapsPoolSize) {
  RankSvmOptions options;
  options.pool_capacity = 10;
  options.steps_per_observation = 0;
  OnlineRankSvm svm(options, 3);
  for (int i = 0; i < 100; ++i) {
    svm.Observe(Vec({{static_cast<uint32_t>(i), 1.0f}}), true);
  }
  EXPECT_EQ(svm.useful_pool_size(), 10u);
}

// ---- BaggingCommittee ------------------------------------------------------

TEST(BaggingCommitteeTest, ScoreBoundedByCommitteeSize) {
  BaggingCommittee committee({.sgd = {}, .committee_size = 3}, 5);
  SeparableData data(60, 19);
  committee.TrainInitial(data.examples);
  for (const auto& ex : data.examples) {
    const double s = committee.Score(ex.features);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 3.0);
  }
}

TEST(BaggingCommitteeTest, SeparatesClassesAfterTraining) {
  BaggingCommittee committee(
      {.sgd = {.lambda_all = 0.05, .lambda_l2_share = 0.99},
       .committee_size = 3,
       .initial_epochs = 6},
      5);
  SeparableData data(300, 23);
  committee.TrainInitial(data.examples);
  double pos = 0.0, neg = 0.0;
  for (const auto& ex : data.examples) {
    (ex.label > 0 ? pos : neg) += committee.Score(ex.features);
  }
  EXPECT_GT(pos, neg);
}

TEST(BaggingCommitteeTest, OnlineObserveImprovesNewPattern) {
  BaggingCommittee committee(
      {.sgd = {.lambda_all = 0.1,
               .lambda_l2_share = 0.99,
               .step_offset = 2.0,
               .step_clamp = 500},
       .committee_size = 3},
      5);
  SeparableData data(200, 29);
  committee.TrainInitial(data.examples);
  // A new positive pattern on unseen features.
  const SparseVector novel = Vec({{40, 0.7f}, {41, 0.7f}});
  const double before = committee.Score(novel);
  for (int i = 0; i < 60; ++i) committee.Observe(novel, true);
  EXPECT_GT(committee.Score(novel), before);
}

TEST(BaggingCommitteeTest, MeanDenseWeightsAveragesMembers) {
  BaggingCommittee committee({.sgd = {}, .committee_size = 2}, 5);
  SeparableData data(100, 31);
  committee.TrainInitial(data.examples);
  const WeightVector mean = committee.MeanDenseWeights();
  const WeightVector w0 = committee.member(0).DenseWeights();
  const WeightVector w1 = committee.member(1).DenseWeights();
  for (uint32_t id = 0; id < 5; ++id) {
    EXPECT_NEAR(mean.Get(id), 0.5 * (w0.Get(id) + w1.Get(id)), 1e-9);
  }
}

// ---- OneClassSvm -----------------------------------------------------------

TEST(OneClassSvmTest, InlierScoresHigherThanOutlier) {
  OneClassSvm svm({.gamma = 4.0, .lambda = 0.01, .budget = 64}, 7);
  Rng rng(3);
  // Training cloud: features {0,1}.
  for (int i = 0; i < 200; ++i) {
    SparseVector v = Vec({{0, 0.6f + 0.1f * (float)rng.NextDouble()},
                          {1, 0.6f + 0.1f * (float)rng.NextDouble()}});
    v.Normalize();
    svm.Observe(v);
  }
  SparseVector inlier = Vec({{0, 0.65f}, {1, 0.65f}});
  inlier.Normalize();
  SparseVector outlier = Vec({{5, 1.0f}});
  EXPECT_GT(svm.Decision(inlier), svm.Decision(outlier));
}

TEST(OneClassSvmTest, BudgetEnforced) {
  OneClassSvm svm({.gamma = 4.0, .lambda = 0.01, .budget = 16}, 7);
  for (int i = 0; i < 100; ++i) {
    svm.Observe(Vec({{static_cast<uint32_t>(i), 1.0f}}));
  }
  EXPECT_LE(svm.NumSupportVectors(), 17u);
}

// ---- Feature selection ------------------------------------------------------

TEST(TopKFeaturesTest, OrdersByAbsoluteWeight) {
  WeightVector w;
  w.Set(0, 0.1);
  w.Set(1, -2.0);
  w.Set(2, 1.0);
  const auto top = TopKFeatures(w, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 1u);
  EXPECT_DOUBLE_EQ(top[0].weight, 2.0);
  EXPECT_EQ(top[1].id, 2u);
}

TEST(TopKFeaturesTest, FewerThanKReturnsAll) {
  WeightVector w;
  w.Set(3, 1.0);
  EXPECT_EQ(TopKFeatures(w, 10).size(), 1u);
}

TEST(FootruleTest, IdenticalListsHaveZeroDistance) {
  const std::vector<WeightedFeature> list = {{0, 2.0}, {1, 1.0}, {2, 0.5}};
  EXPECT_NEAR(GeneralizedFootrule(list, list), 0.0, 1e-12);
}

TEST(FootruleTest, EmptyListsHaveZeroDistance) {
  EXPECT_DOUBLE_EQ(GeneralizedFootrule({}, {}), 0.0);
}

TEST(FootruleTest, DisjointListsFarApart) {
  const std::vector<WeightedFeature> a = {{0, 1.0}, {1, 1.0}};
  const std::vector<WeightedFeature> b = {{10, 1.0}, {11, 1.0}};
  const std::vector<WeightedFeature> c = {{0, 1.0}, {1, 0.9}};
  EXPECT_GT(GeneralizedFootrule(a, b), GeneralizedFootrule(a, c));
}

TEST(FootruleTest, SwapOfHeavyFeaturesCostsMoreThanLight) {
  const std::vector<WeightedFeature> base = {
      {0, 10.0}, {1, 5.0}, {2, 1.0}, {3, 0.5}};
  std::vector<WeightedFeature> heavy_swap = {
      {1, 10.0}, {0, 5.0}, {2, 1.0}, {3, 0.5}};
  std::vector<WeightedFeature> light_swap = {
      {0, 10.0}, {1, 5.0}, {3, 1.0}, {2, 0.5}};
  EXPECT_GT(GeneralizedFootrule(base, heavy_swap),
            GeneralizedFootrule(base, light_swap));
}

TEST(FootruleTest, Symmetric) {
  const std::vector<WeightedFeature> a = {{0, 3.0}, {1, 1.0}, {5, 0.5}};
  const std::vector<WeightedFeature> b = {{1, 2.0}, {7, 1.5}, {0, 0.5}};
  EXPECT_NEAR(GeneralizedFootrule(a, b), GeneralizedFootrule(b, a), 1e-12);
}

// The hash-map implementation GeneralizedFootrule had before it moved to
// flat id-sorted arrays: the oracle that the flat version must match bit
// for bit.
double HashMapFootrule(const std::vector<WeightedFeature>& a,
                       const std::vector<WeightedFeature>& b) {
  if (a.empty() && b.empty()) return 0.0;
  std::unordered_map<uint32_t, double> wa, wb;
  double sum_a = 0.0, sum_b = 0.0;
  std::unordered_map<uint32_t, size_t> rank_a, rank_b;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!rank_a.emplace(a[i].id, rank_a.size()).second) continue;
    wa[a[i].id] = a[i].weight;
    sum_a += a[i].weight;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    if (!rank_b.emplace(b[i].id, rank_b.size()).second) continue;
    wb[b[i].id] = b[i].weight;
    sum_b += b[i].weight;
  }
  if (sum_a > 0.0) {
    for (auto& [id, w] : wa) w /= sum_a;
  }
  if (sum_b > 0.0) {
    for (auto& [id, w] : wb) w /= sum_b;
  }
  struct Item {
    uint32_t id;
    double weight;
    size_t pos_a;
    size_t pos_b;
  };
  const size_t tail_a = rank_a.size();
  const size_t tail_b = rank_b.size();
  std::vector<Item> items;
  auto combined = [&](uint32_t id) {
    const auto ita = wa.find(id);
    const auto itb = wb.find(id);
    const double va = ita == wa.end() ? 0.0 : ita->second;
    const double vb = itb == wb.end() ? 0.0 : itb->second;
    return 0.5 * (va + vb);
  };
  ForEachSorted(rank_a, [&](uint32_t id, size_t pos) {
    const auto itb = rank_b.find(id);
    items.push_back(
        {id, combined(id), pos, itb == rank_b.end() ? tail_b : itb->second});
  });
  ForEachSorted(rank_b, [&](uint32_t id, size_t pos) {
    if (rank_a.count(id) > 0) return;
    items.push_back({id, combined(id), tail_a, pos});
  });
  auto prefix_for = [&](bool use_a) {
    std::vector<size_t> order(items.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      const size_t px = use_a ? items[x].pos_a : items[x].pos_b;
      const size_t py = use_a ? items[y].pos_a : items[y].pos_b;
      if (px != py) return px < py;
      return items[x].id < items[y].id;
    });
    std::vector<double> prefix(items.size());
    double run = 0.0;
    for (size_t idx : order) {
      run += items[idx].weight;
      prefix[idx] = run;
    }
    return prefix;
  };
  const std::vector<double> pa = prefix_for(true);
  const std::vector<double> pb = prefix_for(false);
  double f = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    f += items[i].weight * std::fabs(pa[i] - pb[i]);
  }
  return f;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// A random ranked list over ids [0, id_range): duplicates whenever the
// range is small, repeated weights, and now and then a zero weight.
std::vector<WeightedFeature> RandomList(Rng& rng, size_t max_len,
                                        uint32_t id_range) {
  std::vector<WeightedFeature> list(rng.NextBounded(max_len + 1));
  for (WeightedFeature& f : list) {
    f.id = static_cast<uint32_t>(rng.NextBounded(id_range));
    switch (rng.NextBounded(4)) {
      case 0: f.weight = 0.25; break;
      case 1: f.weight = rng.NextBounded(8) == 0 ? 0.0 : 1.0; break;
      default: f.weight = rng.NextDouble() * 3.0; break;
    }
  }
  return list;
}

TEST(FootruleParityTest, MatchesHashMapOracleOnRandomLists) {
  Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    const uint32_t id_range = trial % 3 == 0 ? 8 : 300;
    const auto a = RandomList(rng, 40, id_range);
    const auto b = RandomList(rng, 40, id_range);
    ASSERT_EQ(Bits(GeneralizedFootrule(a, b)), Bits(HashMapFootrule(a, b)))
        << "trial " << trial;
    ASSERT_EQ(Bits(GeneralizedFootrule(b, a)), Bits(HashMapFootrule(b, a)))
        << "trial " << trial;
  }
}

TEST(FootruleParityTest, MatchesHashMapOracleOnEdgeLists) {
  const std::vector<WeightedFeature> empty;
  const std::vector<WeightedFeature> dup = {
      {4, 1.0}, {2, 0.5}, {4, 3.0}, {9, 0.5}, {2, 0.125}};
  const std::vector<WeightedFeature> zeros = {{1, 0.0}, {3, 0.0}};
  const std::vector<WeightedFeature> single = {{2, 7.0}};
  const std::vector<std::vector<WeightedFeature>> lists = {empty, dup, zeros,
                                                           single};
  for (const auto& a : lists) {
    for (const auto& b : lists) {
      EXPECT_EQ(Bits(GeneralizedFootrule(a, b)), Bits(HashMapFootrule(a, b)));
    }
  }
}

TEST(FootruleParityTest, MatchesHashMapOracleOnTopKLists) {
  // Lists shaped like the detector's: K distinct ids sorted by weight.
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    WeightVector wa, wb;
    for (uint32_t id = 0; id < 500; ++id) {
      if (rng.NextBounded(3) == 0) wa.Set(id, rng.NextDouble() - 0.5);
      if (rng.NextBounded(3) == 0) wb.Set(id, rng.NextDouble() - 0.5);
    }
    const auto a = TopKFeatures(wa, 60);
    const auto b = TopKFeatures(wb, 60);
    ASSERT_EQ(Bits(GeneralizedFootrule(a, b)), Bits(HashMapFootrule(a, b)));
  }
}

}  // namespace
}  // namespace ie
