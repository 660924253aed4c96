#include "pipeline/rerank_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace ie {

namespace {

constexpr uint32_t kNoSlot = 0xffffffffu;

}  // namespace

RerankEngine::RerankEngine(DocumentRanker* ranker,
                           const std::vector<SparseVector>* features,
                           RerankOptions options,
                           std::function<double(DocId)> score_override)
    : ranker_(ranker),
      features_(features),
      options_(options),
      score_override_(std::move(score_override)) {
  IE_CHECK(features_ != nullptr);
  IE_CHECK(ranker_ != nullptr || score_override_ != nullptr);
}

void RerankEngine::AddCandidate(DocId doc) {
  if (doc >= slot_of_doc_.size()) {
    slot_of_doc_.resize(doc + 1, kNoSlot);
  }
  IE_CHECK(slot_of_doc_[doc] == kNoSlot);
  const uint32_t slot = static_cast<uint32_t>(slots_.size());
  slot_of_doc_[doc] = slot;
  slots_.push_back(Slot{doc, 0.0f, false});
  ++pending_;
}

std::vector<uint32_t> RerankEngine::PendingSlots() const {
  std::vector<uint32_t> out;
  out.reserve(pending_);
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].processed) out.push_back(s);
  }
  return out;
}

void RerankEngine::Rescore() {
  IE_TRACE_SCOPE("rerank.full");
  IE_METRIC_COUNT("rerank.full_rescores");
  const std::vector<uint32_t> pending = PendingSlots();
  auto score_one = [&](size_t i) {
    Slot& slot = slots_[pending[i]];
    slot.score = static_cast<float>(
        score_override_ != nullptr ? score_override_(slot.doc)
                                   : ranker_->Score((*features_)[slot.doc]));
  };
  if (options_.allow_parallel_scoring && options_.scoring_threads > 1) {
    ParallelFor(pending.size(), options_.scoring_threads, score_one);
  } else {
    for (size_t i = 0; i < pending.size(); ++i) score_one(i);
  }
  ++full_rescores_;
}

void RerankEngine::Rerank() {
  if (ranker_ != nullptr) ranker_->SnapshotForScoring();
  Rescore();
  RebuildHeap();
}

// Strict total order for the frontier heap: higher score first, then
// earlier insertion (lower slot) — the deterministic tie-break that makes
// heap selection reproduce the stable sort it replaced. std::*_heap expect
// a less-than whose "largest" element is the heap top.
bool RerankEngine::HeapEntryLess(const HeapEntry& a, const HeapEntry& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.slot > b.slot;
}

void RerankEngine::RebuildHeap() {
  heap_.clear();
  heap_.reserve(pending_);
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].processed) heap_.push_back(HeapEntry{slots_[s].score, s});
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapEntryLess);
}

bool RerankEngine::PopNext(DocId* doc) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), HeapEntryLess);
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  Slot& slot = slots_[top.slot];
  IE_CHECK(!slot.processed);
  slot.processed = true;
  --pending_;
  *doc = slot.doc;
  return true;
}

}  // namespace ie
