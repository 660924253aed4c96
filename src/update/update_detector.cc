#include "update/update_detector.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/metrics.h"
#include "common/trace.h"

namespace ie {

namespace {

constexpr double kNoThreshold = -std::numeric_limits<double>::infinity();

// Below this clock a decay factor exp(clock now - clock then) may underflow,
// and the rounding bound below no longer holds; checks then rebuild.
constexpr double kMinLogClock = -700.0;

// The K-th selected weight must be a normal double far above underflow for
// the rounding bound to cover it.
constexpr double kMinCertifiedWeight = 1e-290;

// Key of a feature with current weight |w| = magnitude.
double Key(double magnitude, double clock) {
  return std::log(magnitude) - clock;
}

// Bound on how far ln of a computed weight, minus the clock, may drift from
// the key stored for it, summed over two features keyed a and b: 2^-50 per
// unit of |key| + |clock| + 2, twice the first-order error of the log, exp,
// subtraction and product roundings (DESIGN.md §17).
double RoundingMargin(double a, double b, double clock) {
  return 0x1p-50 * (std::fabs(a) + std::fabs(b) + 2.0 * std::fabs(clock) +
                    4.0);
}

}  // namespace

TopKDetector::TopKDetector(TopKOptions options)
    : options_(options),
      side_(options.side_classifier),
      stable_keys_(options.side_classifier.L1Strength() == 0.0 &&
                   options.side_classifier.step_offset >= 0.0),
      theta_(kNoThreshold) {}

void TopKDetector::OnModelUpdated(
    const DocumentRanker& ranker,
    const std::vector<LabeledExample>& absorbed) {
  (void)ranker;
  // The side classifier keeps learning across updates; absorbed documents
  // were already fed through Observe. It changes only in Observe, which
  // leaves current_topk_ equal to TopKFeatures(side_.DenseWeights(), k).
  (void)absorbed;
  reference_topk_ = current_topk_;
}

bool TopKDetector::Observe(const SparseVector& features, bool useful,
                           const DocumentRanker& ranker) {
  (void)ranker;
  if (side_.Update(features, useful ? 1 : -1) && stable_keys_) {
    Rekey(features);
  }
  IE_METRIC_COUNT("detector.checks");
  if (!SelectFromCandidates()) Rebuild();
  last_distance_ = GeneralizedFootrule(reference_topk_, current_topk_);
  IE_METRIC_GAUGE_SET("detector.topk.footrule", last_distance_);
  IE_TRACE_COUNTER("detector.topk.footrule", last_distance_);
  return last_distance_ > options_.tau;
}

void TopKDetector::Rekey(const SparseVector& x) {
  const double clock = side_.LogDecayClock();
  const uint32_t* ids = x.ids();
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t id = ids[i];
    const double key = Key(std::fabs(side_.Weight(id)), clock);
    if (id >= candidate_slot_.size()) candidate_slot_.resize(id + 1, 0);
    const uint32_t slot = candidate_slot_[id];
    if (key > theta_) {
      if (slot != 0) {
        candidate_keys_[slot - 1] = key;
      } else {
        candidates_.push_back(id);
        candidate_keys_.push_back(key);
        candidate_slot_[id] = static_cast<uint32_t>(candidates_.size());
      }
    } else if (slot != 0) {
      const uint32_t last = candidates_.back();
      candidates_[slot - 1] = last;
      candidate_keys_[slot - 1] = candidate_keys_.back();
      candidate_slot_[last] = slot;
      candidates_.pop_back();
      candidate_keys_.pop_back();
      candidate_slot_[id] = 0;
    }
  }
}

bool TopKDetector::SelectFromCandidates() {
  const double clock = side_.LogDecayClock();
  if (!stable_keys_ || !(clock >= kMinLogClock) ||
      candidates_.size() > 4 * options_.k) {
    return false;
  }
  selection_.clear();
  for (uint32_t id : candidates_) {
    const double w = std::fabs(side_.Weight(id));
    if (w > 0.0) selection_.push_back({id, w});
  }
  SelectTopK(&selection_, options_.k);
  if (theta_ != kNoThreshold) {
    // Certify: every feature outside S has key ≤ θ, so its computed weight
    // is strictly below the K-th selected one when that key clears θ by
    // the rounding margin.
    if (selection_.size() < options_.k) return false;
    const WeightedFeature& kth = selection_.back();
    const double key = candidate_keys_[candidate_slot_[kth.id] - 1];
    if (!(kth.weight >= kMinCertifiedWeight &&
          key - theta_ > RoundingMargin(key, theta_, clock))) {
      return false;
    }
  }
  current_topk_.swap(selection_);
  return true;
}

void TopKDetector::Rebuild() {
  IE_METRIC_COUNT("detector.topk.rebuilds");
  ++rebuilds_;
  const WeightVector dense = side_.DenseWeights();
  current_topk_ = TopKFeatures(dense, options_.k);
  for (uint32_t id : candidates_) candidate_slot_[id] = 0;
  candidates_.clear();
  candidate_keys_.clear();
  theta_ = kNoThreshold;
  // With ℓ1 the keys are not order-stable: every check rebuilds, and S
  // stays empty.
  if (!stable_keys_) return;

  const double clock = side_.LogDecayClock();
  dense.ForEachNonZero([&](uint32_t id, double w) {
    candidates_.push_back(id);
    candidate_keys_.push_back(Key(std::fabs(w), clock));
  });
  // θ = min(key of the (2K+1)-th, K-th key - 2·margin): S keeps about 2K
  // features, and the next checks certify until touched features
  // overtake the K-th by more than the margin.
  const size_t k = options_.k;
  if (k > 0 && current_topk_.size() == k) {
    const double kth = Key(current_topk_.back().weight, clock);
    theta_ = kth - 2.0 * RoundingMargin(kth, kth, clock);
    if (candidate_keys_.size() > 2 * k) {
      std::vector<double> keys = candidate_keys_;
      std::nth_element(keys.begin(), keys.begin() + static_cast<long>(2 * k),
                       keys.end(), std::greater<double>());
      theta_ = std::min(theta_, keys[2 * k]);
    }
  }
  if (candidate_slot_.size() < dense.dimension()) {
    candidate_slot_.resize(dense.dimension(), 0);
  }
  size_t kept = 0;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (!(candidate_keys_[i] > theta_)) continue;
    const uint32_t id = candidates_[i];
    candidates_[kept] = id;
    candidate_keys_[kept] = candidate_keys_[i];
    candidate_slot_[id] = static_cast<uint32_t>(++kept);
  }
  candidates_.resize(kept);
  candidate_keys_.resize(kept);
}

void ModCDetector::OnModelUpdated(
    const DocumentRanker& ranker,
    const std::vector<LabeledExample>& absorbed) {
  (void)absorbed;
  shadow_ = ranker.Clone();
  frozen_weights_ = ranker.ModelWeights();
  last_angle_ = 0.0;
}

bool ModCDetector::Observe(const SparseVector& features, bool useful,
                           const DocumentRanker& ranker) {
  (void)ranker;
  if (shadow_ == nullptr) return false;
  if (!rng_.NextBool(options_.rho)) return false;
  shadow_->Observe(features, useful);
  const WeightVector shadow_weights = shadow_->ModelWeights();
  const double cosine = WeightVector::Cosine(shadow_weights,
                                             frozen_weights_);
  last_angle_ =
      std::acos(std::clamp(cosine, -1.0, 1.0)) * 180.0 / M_PI;
  IE_METRIC_COUNT("detector.checks");
  IE_METRIC_GAUGE_SET("detector.modc.angle_degrees", last_angle_);
  IE_TRACE_COUNTER("detector.modc.angle_degrees", last_angle_);
  return last_angle_ > options_.alpha_degrees;
}

void FeatSDetector::OnModelUpdated(
    const DocumentRanker& ranker,
    const std::vector<LabeledExample>& absorbed) {
  (void)ranker;
  // The documents the model was (re)trained on define the "training
  // distribution" the one-class SVM models.
  for (const LabeledExample& ex : absorbed) {
    svm_.Observe(ex.features);
  }
  // Recalibrate the inlier margin to a quantile of the training decisions,
  // so S ~ (1 - quantile) on in-distribution data regardless of kernel
  // scale.
  if (!absorbed.empty()) {
    std::vector<double> decisions;
    decisions.reserve(absorbed.size());
    for (const LabeledExample& ex : absorbed) {
      decisions.push_back(svm_.Decision(ex.features));
    }
    std::sort(decisions.begin(), decisions.end());
    const size_t idx = static_cast<size_t>(
        options_.margin_quantile *
        static_cast<double>(decisions.size() - 1));
    margin_ = decisions[idx];
  }
  recent_inlier_.clear();
  inlier_sum_ = 0;
  since_check_ = 0;
}

bool FeatSDetector::Observe(const SparseVector& features, bool useful,
                            const DocumentRanker& ranker) {
  (void)useful;
  (void)ranker;
  const uint8_t inlier = svm_.IsInlier(features, margin_) ? 1 : 0;
  recent_inlier_.push_back(inlier);
  inlier_sum_ += inlier;
  if (recent_inlier_.size() > options_.window) {
    inlier_sum_ -= recent_inlier_.front();
    recent_inlier_.pop_front();
  }
  if (++since_check_ < options_.min_docs_between_checks) return false;
  since_check_ = 0;
  if (recent_inlier_.empty()) return false;
  const double s = static_cast<double>(inlier_sum_) /
                   static_cast<double>(recent_inlier_.size());
  last_shift_ = 1.0 - s;
  IE_METRIC_COUNT("detector.checks");
  IE_METRIC_GAUGE_SET("detector.feats.shift", last_shift_);
  IE_TRACE_COUNTER("detector.feats.shift", last_shift_);
  return last_shift_ > options_.threshold;
}

}  // namespace ie
