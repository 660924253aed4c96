#include "update/update_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "ranking/learned_rankers.h"

namespace ie {
namespace {

SparseVector Vec(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromUnsorted(std::move(entries));
}

// Stream whose useful documents use features [base, base+width).
std::vector<LabeledExample> Stream(size_t n, uint32_t base, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledExample> out;
  for (size_t i = 0; i < n; ++i) {
    const bool useful = i % 2 == 0;
    std::vector<SparseVector::Entry> entries;
    const uint32_t offset = useful ? base : 500;
    for (int k = 0; k < 3; ++k) {
      entries.emplace_back(offset + rng.NextBounded(8), 1.0f);
    }
    SparseVector v = Vec(std::move(entries));
    v.Normalize();
    out.push_back({std::move(v), useful ? 1 : -1});
  }
  return out;
}

std::unique_ptr<RsvmIeRanker> TrainedRanker(
    const std::vector<LabeledExample>& sample) {
  auto ranker = std::make_unique<RsvmIeRanker>();
  ranker->TrainInitial(sample);
  return ranker;
}

// ---- NeverUpdate / Wind-F ----------------------------------------------

TEST(NeverUpdateTest, NeverTriggers) {
  NeverUpdateDetector detector;
  RsvmIeRanker ranker;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(detector.Observe(Vec({{0, 1.0f}}), true, ranker));
  }
}

TEST(WindFTest, TriggersAtExactInterval) {
  WindFDetector detector(10);
  RsvmIeRanker ranker;
  int triggers = 0;
  for (int i = 1; i <= 100; ++i) {
    const bool fired = detector.Observe(Vec({{0, 1.0f}}), false, ranker);
    EXPECT_EQ(fired, i % 10 == 0);
    triggers += fired;
  }
  EXPECT_EQ(triggers, 10);
}

// ---- Top-K ------------------------------------------------------------

TEST(TopKTest, ShiftTriggersMoreThanSteadyStream) {
  auto run = [](uint32_t continuation_base) {
    const auto sample = Stream(200, 0, 1);
    auto ranker = TrainedRanker(sample);
    TopKDetector detector;
    // Warm the side classifier on the reference distribution.
    for (const auto& ex : sample) {
      detector.Observe(ex.features, ex.label > 0, *ranker);
    }
    detector.OnModelUpdated(*ranker, sample);
    double max_distance = 0.0;
    for (const auto& ex : Stream(150, continuation_base, 2)) {
      detector.Observe(ex.features, ex.label > 0, *ranker);
      max_distance = std::max(max_distance, detector.last_distance());
    }
    return max_distance;
  };
  const double steady = run(0);      // same distribution
  const double shifted = run(100);   // new useful-feature block
  EXPECT_GT(shifted, steady);
}

TEST(TopKTest, DistributionShiftTriggers) {
  const auto sample = Stream(200, 0, 1);
  auto ranker = TrainedRanker(sample);
  TopKDetector detector;
  for (const auto& ex : sample) {
    detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  detector.OnModelUpdated(*ranker, sample);
  // Useful documents switch to an entirely new feature block.
  int triggers = 0;
  for (const auto& ex : Stream(300, 100, 3)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_GT(triggers, 0);
  EXPECT_GT(detector.last_distance(), 0.0);
}

// ---- Top-K parity: the incremental top-K equals the dense scan ---------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Observes `stream` and, after every document, requires the detector's
// top-K to equal TopKFeatures(DenseWeights(), k) bit for bit. Returns the
// number of checks at which the K-th and (K+1)-th weights were tied.
size_t ExpectDenseParity(TopKDetector& detector,
                         const std::vector<LabeledExample>& stream,
                         size_t k) {
  RsvmIeRanker ranker;
  size_t boundary_ties = 0;
  for (size_t step = 0; step < stream.size(); ++step) {
    detector.Observe(stream[step].features, stream[step].label > 0, ranker);
    std::vector<WeightedFeature> dense =
        TopKFeatures(detector.side_classifier().DenseWeights(), k + 1);
    if (dense.size() == k + 1 && k > 0 &&
        dense[k].weight == dense[k - 1].weight) {
      ++boundary_ties;
    }
    if (dense.size() > k) dense.pop_back();
    const std::vector<WeightedFeature>& incremental = detector.current_topk();
    EXPECT_EQ(incremental.size(), dense.size()) << "step " << step;
    if (incremental.size() != dense.size()) return boundary_ties;
    for (size_t i = 0; i < dense.size(); ++i) {
      EXPECT_EQ(incremental[i].id, dense[i].id)
          << "step " << step << " rank " << i;
      EXPECT_EQ(Bits(incremental[i].weight), Bits(dense[i].weight))
          << "step " << step << " rank " << i;
      if (incremental[i].id != dense[i].id) return boundary_ties;
    }
  }
  return boundary_ties;
}

// Documents over a skewed vocabulary of `vocab` ids; `pairs` makes every id
// below vocab/2 co-occur with id + vocab/2 at the same value, so the pair
// keeps bit-identical weights: exact ties at every rank, and an odd K
// splits a tied pair at the boundary.
std::vector<LabeledExample> RandomStream(size_t n, uint32_t vocab,
                                         bool pairs, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledExample> out;
  const uint32_t draw_range = pairs ? vocab / 2 : vocab;
  for (size_t i = 0; i < n; ++i) {
    const bool useful = rng.NextBounded(4) == 0;
    std::vector<SparseVector::Entry> entries;
    const size_t nnz = 1 + rng.NextBounded(12);
    for (size_t j = 0; j < nnz; ++j) {
      // Skew: low ids are frequent, so their weights stay large.
      const uint32_t id = static_cast<uint32_t>(
          rng.NextBounded(1 + rng.NextBounded(draw_range)));
      const float value = 0.1f + static_cast<float>(rng.NextBounded(8)) / 8;
      entries.emplace_back(id, value);
      if (pairs) entries.emplace_back(id + vocab / 2, value);
    }
    out.push_back({SparseVector::FromUnsorted(std::move(entries)),
                   useful ? 1 : -1});
  }
  return out;
}

TEST(TopKParityTest, LongRandomStreamMatchesDenseScan) {
  TopKOptions options;
  options.k = 40;
  TopKDetector detector(options);
  const auto stream = RandomStream(6000, 3000, false, 21);
  ExpectDenseParity(detector, stream, options.k);
  // The candidate set carries most checks; rebuilds are the exception.
  EXPECT_LT(detector.rebuilds(), stream.size() / 10);
}

TEST(TopKParityTest, TiedWeightsAtTheKBoundary) {
  for (size_t k : {1u, 7u, 41u}) {
    TopKOptions options;
    options.k = k;
    TopKDetector detector(options);
    const auto stream = RandomStream(3000, 600, true, 22 + k);
    EXPECT_GT(ExpectDenseParity(detector, stream, k), stream.size() / 4)
        << "k " << k;
    EXPECT_LT(detector.rebuilds(), stream.size() / 4) << "k " << k;
  }
}

TEST(TopKParityTest, FewerNonZerosThanK) {
  TopKOptions options;
  options.k = 200;
  TopKDetector detector(options);
  ExpectDenseParity(detector, RandomStream(2000, 60, false, 23), options.k);
  EXPECT_LT(detector.current_topk().size(), options.k);
}

TEST(TopKParityTest, WeightDrivenToExactlyZero) {
  // An offset this large makes every decay factor round to 1 and the step
  // size constant, so a +x step followed by a -x step on the same document
  // cancels exactly.
  TopKOptions options;
  options.k = 4;
  options.side_classifier = {.lambda_all = 1e-6,
                             .lambda_l2_share = 1.0,
                             .step_offset = 1e20};
  TopKDetector detector(options);
  constexpr uint32_t kHeavy = 999;  // outside the random stream's ids
  const SparseVector heavy = Vec({{kHeavy, 1000.0f}});
  std::vector<LabeledExample> stream = RandomStream(200, 50, false, 24);
  stream.push_back({heavy, 1});
  const size_t heavy_step = stream.size() - 1;
  stream.push_back({heavy, -1});
  for (auto& ex : RandomStream(200, 50, false, 25)) stream.push_back(ex);
  auto in_topk = [&] {
    for (const WeightedFeature& f : detector.current_topk()) {
      if (f.id == kHeavy) return true;
    }
    return false;
  };
  for (size_t step = 0; step < stream.size(); ++step) {
    ExpectDenseParity(detector, {stream[step]}, options.k);
    if (step == heavy_step) {
      EXPECT_TRUE(in_topk());
    }
    if (step == heavy_step + 1) {
      EXPECT_EQ(detector.side_classifier().Weight(kHeavy), 0.0);
      EXPECT_FALSE(in_topk());
    }
  }
}

TEST(TopKParityTest, L1SideClassifierRebuildsEveryCheck) {
  TopKOptions options;
  options.k = 30;
  options.side_classifier.lambda_l2_share = 0.5;
  TopKDetector detector(options);
  const auto stream = RandomStream(1500, 800, false, 26);
  ExpectDenseParity(detector, stream, options.k);
  EXPECT_EQ(detector.rebuilds(), stream.size());
}

// ---- Mod-C ------------------------------------------------------------

TEST(ModCTest, RequiresOnModelUpdatedFirst) {
  ModCDetector detector;
  RsvmIeRanker ranker;
  EXPECT_FALSE(detector.Observe(Vec({{0, 1.0f}}), true, ranker));
}

TEST(ModCTest, SteadyStreamKeepsAngleSmall) {
  const auto sample = Stream(300, 0, 5);
  auto ranker = TrainedRanker(sample);
  ModCDetector detector({.rho = 0.5, .alpha_degrees = 25.0}, 7);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(200, 0, 6)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_EQ(triggers, 0);
}

TEST(ModCTest, ShiftedStreamGrowsAngleAndTriggers) {
  const auto sample = Stream(300, 0, 5);
  auto ranker = TrainedRanker(sample);
  ModCDetector detector({.rho = 1.0, .alpha_degrees = 2.0}, 7);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(400, 100, 8)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_GT(triggers, 0);
  EXPECT_GT(detector.last_angle_degrees(), 0.0);
}

TEST(ModCTest, RhoZeroNeverFeedsShadow) {
  const auto sample = Stream(100, 0, 5);
  auto ranker = TrainedRanker(sample);
  ModCDetector detector({.rho = 0.0, .alpha_degrees = 0.001}, 7);
  detector.OnModelUpdated(*ranker, sample);
  for (const auto& ex : Stream(100, 100, 9)) {
    EXPECT_FALSE(detector.Observe(ex.features, ex.label > 0, *ranker));
  }
}

// ---- Feat-S ------------------------------------------------------------

TEST(FeatSTest, NoCheckBeforeMinDocs) {
  FeatSOptions options;
  options.min_docs_between_checks = 1000;
  FeatSDetector detector(options);
  const auto sample = Stream(50, 0, 11);
  auto ranker = TrainedRanker(sample);
  detector.OnModelUpdated(*ranker, sample);
  for (const auto& ex : Stream(500, 100, 12)) {
    EXPECT_FALSE(detector.Observe(ex.features, ex.label > 0, *ranker));
  }
}

TEST(FeatSTest, ShiftedDistributionTriggers) {
  FeatSOptions options;
  options.min_docs_between_checks = 50;
  options.window = 50;
  FeatSDetector detector(options);
  const auto sample = Stream(200, 0, 13);
  auto ranker = TrainedRanker(sample);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(200, 300, 14)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_GT(triggers, 0);
  EXPECT_GT(detector.last_shift(), 0.5);
}

TEST(FeatSTest, InDistributionStreamQuiet) {
  FeatSOptions options;
  options.min_docs_between_checks = 50;
  options.window = 50;
  // A conservative margin keeps in-distribution inlier rates well above
  // the trigger threshold (the production default of 0.45 is calibrated
  // for the noisier real pipeline streams).
  options.margin_quantile = 0.15;
  FeatSDetector detector(options);
  const auto sample = Stream(300, 0, 15);
  auto ranker = TrainedRanker(sample);
  detector.OnModelUpdated(*ranker, sample);
  int triggers = 0;
  for (const auto& ex : Stream(300, 0, 16)) {
    triggers += detector.Observe(ex.features, ex.label > 0, *ranker);
  }
  EXPECT_EQ(triggers, 0);
}

}  // namespace
}  // namespace ie
