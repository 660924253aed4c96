#include "learn/feature_selection.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ie {

void SelectTopK(std::vector<WeightedFeature>* features, size_t k) {
  auto better = [](const WeightedFeature& a, const WeightedFeature& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.id < b.id;
  };
  if (features->size() > k) {
    std::partial_sort(features->begin(),
                      features->begin() + static_cast<long>(k),
                      features->end(), better);
    features->resize(k);
  } else {
    std::sort(features->begin(), features->end(), better);
  }
}

std::vector<WeightedFeature> TopKFeatures(const WeightVector& w, size_t k) {
  std::vector<WeightedFeature> all;
  all.reserve(w.dimension() / 8 + 8);
  for (uint32_t id = 0; id < w.dimension(); ++id) {
    const double v = std::fabs(w.Get(id));
    if (v > 0.0) all.push_back({id, v});
  }
  SelectTopK(&all, k);
  return all;
}

namespace {

// One distinct id of a ranked list: its rank among the list's distinct
// ids and its weight normalized by the list's sum.
struct RankedEntry {
  uint32_t id;
  size_t rank;
  double weight;
};

// The distinct ids of `list`, sorted by id. A duplicate id keeps its first,
// i.e. highest-ranked, occurrence, so the distance stays symmetric. The
// normalizing sum adds the kept weights in list order.
std::vector<RankedEntry> DistinctById(
    const std::vector<WeightedFeature>& list) {
  std::vector<size_t> by_id(list.size());
  std::iota(by_id.begin(), by_id.end(), size_t{0});
  std::sort(by_id.begin(), by_id.end(), [&](size_t x, size_t y) {
    if (list[x].id != list[y].id) return list[x].id < list[y].id;
    return x < y;
  });
  std::vector<uint8_t> first(list.size(), 0);
  for (size_t i = 0; i < by_id.size(); ++i) {
    if (i == 0 || list[by_id[i]].id != list[by_id[i - 1]].id) {
      first[by_id[i]] = 1;
    }
  }
  std::vector<size_t> rank(list.size());
  size_t next_rank = 0;
  double sum = 0.0;
  for (size_t pos = 0; pos < list.size(); ++pos) {
    if (first[pos] == 0) continue;
    rank[pos] = next_rank++;
    sum += list[pos].weight;
  }
  std::vector<RankedEntry> entries;
  entries.reserve(next_rank);
  for (size_t pos : by_id) {
    if (first[pos] == 0) continue;
    const double w = list[pos].weight;
    entries.push_back({list[pos].id, rank[pos], sum > 0.0 ? w / sum : w});
  }
  return entries;
}

}  // namespace

double GeneralizedFootrule(const std::vector<WeightedFeature>& a,
                           const std::vector<WeightedFeature>& b) {
  if (a.empty() && b.empty()) return 0.0;
  const std::vector<RankedEntry> ea = DistinctById(a);
  const std::vector<RankedEntry> eb = DistinctById(b);

  // Union of features with combined weight: a's ids ascending, then the
  // ids only b has, ascending. The item order fixes the order of the final
  // floating-point sum.
  struct Item {
    double weight;
    bool in_b;
  };
  std::vector<Item> items;
  items.reserve(ea.size() + eb.size());
  std::vector<size_t> item_by_rank_a(ea.size());
  std::vector<size_t> item_by_rank_b(eb.size());
  size_t j = 0;
  for (const RankedEntry& e : ea) {
    while (j < eb.size() && eb[j].id < e.id) ++j;
    const bool in_b = j < eb.size() && eb[j].id == e.id;
    const double vb = in_b ? eb[j].weight : 0.0;
    item_by_rank_a[e.rank] = items.size();
    if (in_b) item_by_rank_b[eb[j].rank] = items.size();
    items.push_back({0.5 * (e.weight + vb), in_b});
  }
  const size_t a_items = items.size();
  size_t i = 0;
  for (const RankedEntry& e : eb) {
    while (i < ea.size() && ea[i].id < e.id) ++i;
    if (i < ea.size() && ea[i].id == e.id) continue;
    item_by_rank_b[e.rank] = items.size();
    items.push_back({0.5 * (0.0 + e.weight), true});
  }

  // Prefix weight sums in each ranking order: the list's own ids by rank,
  // then the ids it lacks, which share its tail rank, by id (item order).
  std::vector<double> pa(items.size());
  std::vector<double> pb(items.size());
  double run = 0.0;
  for (size_t idx : item_by_rank_a) {
    run += items[idx].weight;
    pa[idx] = run;
  }
  for (size_t idx = a_items; idx < items.size(); ++idx) {
    run += items[idx].weight;
    pa[idx] = run;
  }
  run = 0.0;
  for (size_t idx : item_by_rank_b) {
    run += items[idx].weight;
    pb[idx] = run;
  }
  for (size_t idx = 0; idx < a_items; ++idx) {
    if (items[idx].in_b) continue;
    run += items[idx].weight;
    pb[idx] = run;
  }

  double f = 0.0;
  for (size_t idx = 0; idx < items.size(); ++idx) {
    f += items[idx].weight * std::fabs(pa[idx] - pb[idx]);
  }
  return f;
}

}  // namespace ie
