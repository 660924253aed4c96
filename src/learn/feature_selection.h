// Helpers for inspecting learned models: top-K influential features (used
// by the Top-K update detector and by search-interface query refresh) and
// the generalized Spearman's Footrule distance between weighted feature
// rankings (Kumar & Vassilvitskii, WWW'10), which Top-K thresholds on.
#pragma once

#include <cstdint>
#include <vector>

#include "text/sparse_vector.h"

namespace ie {

struct WeightedFeature {
  uint32_t id = 0;
  /// Importance = |model weight| (sign-insensitive influence).
  double weight = 0.0;
};

/// K features with the largest |weight| in `w`, sorted by descending
/// weight (ties by id). Fewer than K are returned when w is sparser.
std::vector<WeightedFeature> TopKFeatures(const WeightVector& w, size_t k);

/// Sorts `features` by descending weight, ties by ascending id, and keeps
/// the first k: the selection TopKFeatures makes over its non-zeros.
void SelectTopK(std::vector<WeightedFeature>* features, size_t k);

/// Generalized (element-weighted) Spearman's Footrule between two weighted
/// feature rankings:
///   F = Σ_i w_i · | Σ_{j: rank_a(j) ≤ rank_a(i)} w_j
///                 - Σ_{j: rank_b(j) ≤ rank_b(i)} w_j |
/// computed over the union of the two lists; an element absent from one
/// list is placed after its tail with weight taken from the list that has
/// it. Weights are normalized to sum to 1 per list before comparison, so
/// the distance is scale-free. O((|a| + |b|) log(|a| + |b|)), on flat
/// id-sorted arrays.
double GeneralizedFootrule(const std::vector<WeightedFeature>& a,
                           const std::vector<WeightedFeature>& b);

}  // namespace ie
