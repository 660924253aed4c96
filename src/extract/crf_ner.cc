#include "extract/crf_ner.h"

#include <numeric>

#include "common/rng.h"

namespace ie {

namespace {

inline uint32_t HashFeature(uint32_t kind, uint64_t value, uint32_t mask) {
  uint64_t h = static_cast<uint64_t>(kind) * 0xc2b2ae3d27d4eb4fULL ^
               (value + 0x165667b19e3779f9ULL);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return static_cast<uint32_t>(h) & mask;
}

constexpr uint64_t kBoundary = 0xfffffffffffffffULL;

// Reusable per-thread Viterbi scratch: flat DP tables grown to the longest
// sentence a thread has decoded, instead of a fresh vector<array> pair per
// sentence. thread_local because ExtractionOutcomes::Compute runs
// Viterbi concurrently on worker threads; every cell read is written
// earlier in the same call, so reuse never leaks state between sentences
// (tests/ner_test.cc pins this).
struct ViterbiScratch {
  std::vector<uint32_t> features;
  std::vector<double> delta;  // n × kNumBioLabels, row-major
  std::vector<uint8_t> back;  // same layout
};

ViterbiScratch& GetViterbiScratch() {
  thread_local ViterbiScratch scratch;
  return scratch;
}

}  // namespace

void CrfLiteNer::CollectFeatures(const Sentence& sentence, size_t pos,
                                 std::vector<uint32_t>& features) const {
  features.clear();
  const auto& tokens = sentence.tokens;
  features.push_back(HashFeature(0, tokens[pos], mask_));
  features.push_back(
      HashFeature(1, pos > 0 ? tokens[pos - 1] : kBoundary, mask_));
  features.push_back(HashFeature(
      2, pos + 1 < tokens.size() ? tokens[pos + 1] : kBoundary, mask_));
  // Token bigrams around the position.
  features.push_back(HashFeature(
      3,
      (static_cast<uint64_t>(pos > 0 ? tokens[pos - 1] : kBoundary) << 32) |
          tokens[pos],
      mask_));
  features.push_back(HashFeature(4, 1, mask_));  // bias
}

std::vector<uint8_t> CrfLiteNer::Viterbi(const Sentence& sentence) const {
  const size_t n = sentence.tokens.size();
  std::vector<uint8_t> labels(n, kO);
  if (n == 0) return labels;

  ViterbiScratch& scratch = GetViterbiScratch();
  std::vector<uint32_t>& features = scratch.features;
  if (scratch.delta.size() < n * kNumBioLabels) {
    scratch.delta.resize(n * kNumBioLabels);
    scratch.back.resize(n * kNumBioLabels);
  }
  double* delta = scratch.delta.data();
  uint8_t* back = scratch.back.data();

  for (size_t pos = 0; pos < n; ++pos) {
    CollectFeatures(sentence, pos, features);
    std::array<double, kNumBioLabels> unary{};
    for (size_t y = 0; y < kNumBioLabels; ++y) {
      double s = 0.0;
      for (uint32_t f : features) s += static_cast<double>(unary_[y][f]);
      unary[y] = s;
    }
    double* delta_row = delta + pos * kNumBioLabels;
    uint8_t* back_row = back + pos * kNumBioLabels;
    if (pos == 0) {
      for (size_t y = 0; y < kNumBioLabels; ++y) {
        delta_row[y] = unary[y];
        back_row[y] = 0;
      }
      continue;
    }
    const double* prev_row = delta_row - kNumBioLabels;
    for (size_t y = 0; y < kNumBioLabels; ++y) {
      double best = -1e300;
      uint8_t arg = 0;
      for (size_t y0 = 0; y0 < kNumBioLabels; ++y0) {
        const double v = prev_row[y0] + static_cast<double>(transition_[y0][y]);
        if (v > best) {
          best = v;
          arg = static_cast<uint8_t>(y0);
        }
      }
      delta_row[y] = best + unary[y];
      back_row[y] = arg;
    }
  }
  double best = -1e300;
  const double* last_row = delta + (n - 1) * kNumBioLabels;
  for (size_t y = 0; y < kNumBioLabels; ++y) {
    if (last_row[y] > best) {
      best = last_row[y];
      labels[n - 1] = static_cast<uint8_t>(y);
    }
  }
  for (size_t i = n - 1; i > 0; --i) {
    labels[i - 1] = back[i * kNumBioLabels + labels[i]];
  }
  return labels;
}

void CrfLiteNer::Train(const std::vector<TaggedSentence>& data,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint32_t> features;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const TaggedSentence& ts = data[idx];
      const std::vector<uint8_t> predicted = Viterbi(*ts.sentence);
      if (predicted == ts.labels) continue;
      // Structured perceptron update: +gold features, -predicted features.
      uint8_t prev_gold = kNumBioLabels;  // sentinel: no previous
      uint8_t prev_pred = kNumBioLabels;
      for (size_t pos = 0; pos < ts.labels.size(); ++pos) {
        const uint8_t gold = ts.labels[pos];
        const uint8_t pred = predicted[pos];
        if (gold != pred) {
          CollectFeatures(*ts.sentence, pos, features);
          for (uint32_t f : features) {
            unary_[gold][f] += 1.0f;
            unary_[pred][f] -= 1.0f;
          }
        }
        if (pos > 0) {
          transition_[prev_gold][gold] += 1.0f;
          transition_[prev_pred][pred] -= 1.0f;
        }
        prev_gold = gold;
        prev_pred = pred;
      }
    }
  }
}

std::vector<uint8_t> CrfLiteNer::Label(const Sentence& sentence) const {
  return Viterbi(sentence);
}

}  // namespace ie
