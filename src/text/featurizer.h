// Featurization: documents -> sparse feature vectors. The feature space is
// the shared Vocabulary, so word features and tuple-attribute features
// ("attr:tsunami") coexist in one id space, as the paper's ranking models
// require ("the documents' words as well as the attribute values of tuples
// extracted from them as features").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/sync.h"
#include "text/document.h"
#include "text/sparse_vector.h"
#include "text/vocabulary.h"

namespace ie {

struct FeaturizerOptions {
  /// Add adjacent-pair phrase features ("w1_w2") in addition to unigrams.
  bool use_bigrams = false;
  /// Use 1 + ln(tf) instead of raw term frequency.
  bool log_tf = true;
  /// ℓ2-normalize the final vector (standard for SVM-based text models).
  bool l2_normalize = true;
};

class Featurizer {
 public:
  /// `vocab` must outlive the featurizer; bigram and attribute features are
  /// interned into it on demand.
  Featurizer(Vocabulary* vocab, FeaturizerOptions options = {})
      : vocab_(vocab), options_(options) {}

  /// Bag-of-words (and optionally bigram) features for a document.
  ///
  /// Thread safety: safe to call concurrently (FeaturizePool featurizes
  /// on worker threads) provided nothing else mutates
  /// the vocabulary concurrently. Bigram ids come from a shared
  /// read-mostly cache; interning a *new* bigram or attribute feature
  /// mutates the vocabulary, so parallel phases must be preceded by
  /// WarmBigrams / AttributeFeatureId passes over the documents involved
  /// (FeaturizePool and the pipeline do this).
  SparseVector Featurize(const Document& doc) const;

  /// Featurize and append tuple-attribute features: one feature
  /// "attr:<value>" per distinct attribute value, weight 1 (before
  /// normalization).
  SparseVector Featurize(const Document& doc,
                         const std::vector<std::string>& attribute_values)
      const;

  /// Id of the attribute feature for `value` (interned).
  uint32_t AttributeFeatureId(std::string_view value) const;

  /// Id of the bigram feature for adjacent tokens (a, b), via a cache
  /// keyed by the token-id pair — the hot path never rebuilds the
  /// "<term>_<term>" string (only a first-ever miss interns it).
  uint32_t BigramFeatureId(TokenId a, TokenId b) const EXCLUDES(bigram_mu_);

  /// Interns every adjacent-pair bigram of `doc` into the cache (no-op
  /// without use_bigrams). Called serially in document order before
  /// parallel featurization so bigram ids are assigned deterministically.
  void WarmBigrams(const Document& doc) const;

  /// Installs inverse-document-frequency weights (indexed by feature id;
  /// features beyond the table — e.g. attribute features interned later —
  /// get `default_idf`). Values are multiplied into term weights before
  /// normalization.
  void SetIdf(std::vector<float> idf, float default_idf = 3.0f);
  bool has_idf() const { return !idf_.empty(); }

  const FeaturizerOptions& options() const { return options_; }
  Vocabulary* vocab() const { return vocab_; }

 private:
  SparseVector FeaturizeImpl(
      const Document& doc,
      const std::vector<std::string>* attribute_values) const;

  Vocabulary* vocab_;
  FeaturizerOptions options_;
  std::vector<float> idf_;
  float default_idf_ = 3.0f;

  // Packed (TokenId, TokenId) -> interned bigram feature id, in an
  // open-addressing flat map whose splitmix64 mixer hashes the packed key
  // directly (std::hash<uint64_t> is the identity on libstdc++ — a
  // clustering hazard for open addressing). Read-mostly after the warm
  // pass; the shared mutex only serializes first-ever misses. The
  // double-checked interning in BigramFeatureId needs no analysis escape:
  // the racy check runs under ReaderLock (shared suffices for reads) and
  // the recheck-and-insert under WriterLock.
  mutable SharedMutex bigram_mu_;
  // ARCH: const-escape (synchronized interior: the bigram cache is the
  // one mutable member behind SharedContext's const Featurizer facade —
  // reads take bigram_mu_ shared, first-ever misses intern under the
  // writer lock, and the serial WarmBigrams pass makes id assignment
  // deterministic; see DESIGN.md §16)
  mutable FlatHashMap<uint64_t, uint32_t> bigram_ids_ GUARDED_BY(bigram_mu_);
};

}  // namespace ie
