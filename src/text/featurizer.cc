#include "text/featurizer.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"

namespace ie {

namespace {

inline uint64_t BigramKey(TokenId a, TokenId b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

// Per-thread featurization scratch: every transient of the per-document
// hot loop (the open-addressed count table and the entry staging array) is
// bump-allocated from this arena and recycled between documents, so
// steady-state featurization never round-trips the global allocator — the
// returned SparseVector's own arrays are the only per-doc allocations
// left. thread_local because FeaturizePool featurizes on worker
// threads.
Arena& ScratchArena() {
  thread_local Arena arena;
  return arena;
}

// Open-addressed feature-count accumulator over arena storage. Keys are
// stored as id+1 so 0 marks an empty slot (feature id 0 is valid;
// Vocabulary::kInvalidId is never interned). Capacity is sized per
// document for a load factor of at most 1/2.
struct CountTable {
  uint32_t* keys;  // feature id + 1; 0 = empty
  float* counts;
  size_t mask;

  CountTable(Arena& arena, size_t max_distinct) {
    size_t cap = 16;
    while (cap < max_distinct * 2) cap *= 2;
    keys = arena.AllocateArray<uint32_t>(cap);
    counts = arena.AllocateArray<float>(cap);
    std::fill(keys, keys + cap, 0u);
    mask = cap - 1;
  }

  void Bump(uint32_t id) {
    size_t i = Mix64(id) & mask;
    while (true) {
      if (keys[i] == id + 1) {
        counts[i] += 1.0f;
        return;
      }
      if (keys[i] == 0) {
        keys[i] = id + 1;
        counts[i] = 1.0f;
        return;
      }
      i = (i + 1) & mask;
    }
  }
};

}  // namespace

uint32_t Featurizer::BigramFeatureId(TokenId a, TokenId b) const {
  const uint64_t key = BigramKey(a, b);
  {
    ReaderLock lock(bigram_mu_);
    if (const uint32_t* id = bigram_ids_.Find(key)) return *id;
  }
  WriterLock lock(bigram_mu_);
  if (const uint32_t* id = bigram_ids_.Find(key)) return *id;
  const uint32_t id =
      vocab_->Intern(vocab_->Term(a) + "_" + vocab_->Term(b));
  bigram_ids_.Emplace(key, id);
  return id;
}

void Featurizer::WarmBigrams(const Document& doc) const {
  if (!options_.use_bigrams) return;
  for (const Sentence& sentence : doc.sentences) {
    for (size_t i = 0; i + 1 < sentence.tokens.size(); ++i) {
      BigramFeatureId(sentence.tokens[i], sentence.tokens[i + 1]);
    }
  }
}

SparseVector Featurizer::FeaturizeImpl(
    const Document& doc,
    const std::vector<std::string>* attribute_values) const {
  Arena& arena = ScratchArena();
  arena.Reset();

  size_t total_tokens = 0;
  for (const Sentence& sentence : doc.sentences) {
    total_tokens += sentence.tokens.size();
  }
  const size_t max_distinct =
      total_tokens * (options_.use_bigrams ? 2u : 1u) + 1;
  CountTable table(arena, max_distinct);
  for (const Sentence& sentence : doc.sentences) {
    for (size_t i = 0; i < sentence.tokens.size(); ++i) {
      table.Bump(sentence.tokens[i]);
      if (options_.use_bigrams && i + 1 < sentence.tokens.size()) {
        table.Bump(
            BigramFeatureId(sentence.tokens[i], sentence.tokens[i + 1]));
      }
    }
  }

  const size_t max_entries =
      max_distinct + (attribute_values ? attribute_values->size() : 0);
  SparseVector::Entry* entries =
      arena.AllocateArray<SparseVector::Entry>(max_entries);
  size_t n = 0;
  // Slot-order visit of the count table. DETERMINISM: order-insensitive
  // (one entry per feature id, value independent of visit order;
  // FromEntrySpan re-sorts entries by id).
  for (size_t i = 0; i <= table.mask; ++i) {
    if (table.keys[i] == 0) continue;
    const float tf = table.counts[i];
    entries[n++] = {table.keys[i] - 1,
                    options_.log_tf ? 1.0f + std::log(tf) : tf};
  }
  if (attribute_values != nullptr) {
    for (const std::string& value : *attribute_values) {
      entries[n++] = {AttributeFeatureId(value), 1.0f};
    }
  }
  if (!idf_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      entries[i].second *=
          entries[i].first < idf_.size() ? idf_[entries[i].first]
                                         : default_idf_;
    }
  }
  SparseVector v = SparseVector::FromEntrySpan(entries, n);
  if (options_.l2_normalize) v.Normalize();
  return v;
}

void Featurizer::SetIdf(std::vector<float> idf, float default_idf) {
  idf_ = std::move(idf);
  default_idf_ = default_idf;
}

SparseVector Featurizer::Featurize(const Document& doc) const {
  return FeaturizeImpl(doc, nullptr);
}

SparseVector Featurizer::Featurize(
    const Document& doc,
    const std::vector<std::string>& attribute_values) const {
  return FeaturizeImpl(doc, &attribute_values);
}

uint32_t Featurizer::AttributeFeatureId(std::string_view value) const {
  std::string feature = "attr:";
  feature += value;
  return vocab_->Intern(feature);
}

}  // namespace ie
