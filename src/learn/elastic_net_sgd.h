// Online elastic-net-regularized SGD with Pegasos-style steps — the shared
// optimization core of BAgg-IE and RSVM-IE (paper Section 3.1):
//
//   argmin_w  λAll(λL2/2 ||w||² + (1-λL2) ||w||₁) + Σ hinge-loss
//
// The ℓ2 part uses Pegasos decay steps (Shalev-Shwartz et al., ICML'07);
// the ℓ1 part uses lazily applied cumulative soft-thresholding in the style
// of Tsuruoka et al. (ACL'09), which the paper cites for ℓ1 SGD. Both are
// applied lazily per feature, so a gradient step costs O(nnz(x)) even with
// hundreds of thousands of features — this is what makes continuous online
// model adaptation affordable (the paper's efficiency requirement).
#pragma once

#include <cstdint>
#include <vector>

#include "text/sparse_vector.h"

namespace ie {

struct ElasticNetOptions {
  /// λAll: weight of the whole regularizer vs the loss.
  double lambda_all = 0.1;
  /// λL2 ∈ [0,1]: share of ℓ2 within the regularizer; 1-λL2 goes to ℓ1.
  double lambda_l2_share = 0.99;
  /// Learning-rate offset: η_t = 1 / (λ2eff · (t + offset)); keeps the
  /// first decay factors away from zero.
  double step_offset = 2.0;
  /// Clamp on the effective step count in the learning-rate schedule:
  /// η_t = 1 / (λ2eff · (min(t, clamp) + offset)). Pegasos's 1/(λt) rate is
  /// right for converging on a fixed sample, but it starves *online
  /// adaptation*: after thousands of initial steps, new documents cannot
  /// move the model (and Mod-C's shadow model cannot drift, so updates
  /// never fire). The clamp floors the rate, giving bounded exponential
  /// forgetting — the standard choice for tracking drift.
  size_t step_clamp = SIZE_MAX;

  /// Effective ℓ1 strength λAll·(1-λL2); 0 for an ℓ2-only model.
  double L1Strength() const { return lambda_all * (1.0 - lambda_l2_share); }
};

/// Factored change of the weight vector between two CommitAll() calls.
/// Every step applies the same decay factor and the same cumulative ℓ1
/// penalty to every weight, so between commits an *untouched* feature moves
/// by the uniform affine map
///
///   w' = scale·w − penalty·sign(w)        (unless shrunk through zero).
///
/// Only gradient-touched features and features clamped to zero deviate from
/// that map; they are listed as sparse corrections:
///   margin_correction[f] = w'_f − (scale·w_f − penalty·sign(w_f))
///   sign_correction[f]   = sign(w'_f) − sign(w_f)
/// A score cache holding m = w·x and z = Σ_f sign(w_f)·x_f can therefore be
/// advanced with two scalar multiplies per document plus sparse correction
/// dot products — the basis of the incremental re-rank engine.
struct FactoredWeightDelta {
  double scale = 1.0;
  double penalty = 0.0;
  WeightDelta margin_correction;
  WeightDelta sign_correction;

  /// True when the delta provably leaves every weight bit-unchanged.
  bool identity() const {
    return scale == 1.0 && penalty == 0.0 && margin_correction.empty() &&
           sign_correction.empty();
  }
};

class ElasticNetSgd {
 public:
  explicit ElasticNetSgd(ElasticNetOptions options = {});

  /// Current margin score w·x (no bias; callers track bias separately).
  double Score(const SparseVector& x) const;

  /// One hinge-loss step on labeled example (x, y ∈ {-1,+1}).
  /// Returns true when the margin was violated (gradient applied).
  bool Step(const SparseVector& x, int y);

  /// One pairwise hinge step on w·(pos - neg) ≥ 1 (RankSVM /
  /// stochastic pairwise descent). Returns true on margin violation.
  bool PairStep(const SparseVector& pos, const SparseVector& neg);

  /// Advances the regularization clock and applies the hinge gradient
  /// unconditionally (callers that evaluate the margin themselves, e.g.
  /// with a bias term, use this). Pass an empty x for a decay-only step.
  void ForcedStep(const SparseVector& x, double gradient_factor);

  /// Number of SGD steps taken so far.
  size_t steps() const { return steps_; }

  /// Current value of feature id, with its pending decay and ℓ1 penalty
  /// applied: the value DenseWeights() reports for it. O(1).
  double CurrentWeight(uint32_t id) const;

  /// Log-decay clock Σ_{t=1..steps()} ln(1 - η_t λ2eff). Without ℓ1, a
  /// weight last touched at step u equals its value then times
  /// exp(clock now - clock at u), so ln|w| - clock is constant until the
  /// gradient next touches the feature.
  double LogDecayClock() const { return cum_log_decay_[steps_]; }

  /// Materializes all pending lazy regularization and returns a dense
  /// snapshot of the weights. O(dimension).
  WeightVector DenseWeights() const;

  /// Commits every feature's pending regularization in place (weight values
  /// are bit-identical to what CurrentWeight would report) and returns the
  /// factored change since the previous CommitAll(). O(dimension), but the
  /// returned corrections cover only gradient-touched and zero-clamped
  /// features — typically a small fraction of the model support.
  FactoredWeightDelta CommitAll();

  /// Uniform decay factor accumulated over steps (step, steps_].
  double DecayScaleSince(size_t step) const;
  /// Cumulative ℓ1 penalty accumulated over steps (step, steps_].
  double L1PenaltySince(size_t step) const;

  /// Count of features with |w| above eps, after materialization.
  size_t NonZeroCount(double eps = 1e-9) const;

  const ElasticNetOptions& options() const { return options_; }

  /// Copyable: Mod-C clones the model to train a shadow copy.
  ElasticNetSgd(const ElasticNetSgd&) = default;
  ElasticNetSgd& operator=(const ElasticNetSgd&) = default;

 private:
  /// Effective ℓ2 strength (floored to keep η finite for λL2 = 0).
  double L2Eff() const;
  double L1Eff() const;
  double Eta(size_t t) const;

  /// Commits pending decay + ℓ1 for feature id up to the current step.
  void Refresh(uint32_t id);
  void EnsureFeature(uint32_t id);
  /// Starts step t = steps_+1: extends the cumulative decay/penalty tables.
  void BeginStep();
  void ApplyGradient(const SparseVector& x, double factor);

  ElasticNetOptions options_;
  size_t steps_ = 0;

  std::vector<double> values_;      // committed weights (as of last touch)
  std::vector<uint32_t> last_step_; // step each feature was last committed at
  // cum_log_decay_[t] = Σ_{τ=1..t} ln(1 - η_τ λ2eff);  [0] = 0.
  std::vector<double> cum_log_decay_;
  // cum_l1_[t] = Σ_{τ=1..t} η_τ λ1eff;  [0] = 0.
  std::vector<double> cum_l1_;

  // Gradient touches since the last CommitAll: touched_slot_[id] is 1 +
  // index into touched_ids_/touched_old_, or 0 when untouched.
  // touched_old_ records the weight as of the last commit, so CommitAll can
  // emit the exact correction without keeping a full pre-commit copy.
  size_t last_commit_step_ = 0;
  std::vector<uint32_t> touched_slot_;
  std::vector<uint32_t> touched_ids_;
  std::vector<double> touched_old_;
};

}  // namespace ie
