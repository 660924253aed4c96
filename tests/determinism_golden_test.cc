// Full-pipeline golden-hash determinism test (DESIGN.md §12). Each run is
// canonically serialized — processing order, per-document usefulness,
// update positions, the extracted tuples of every processed document, the
// final model weights, and the simulated extraction cost, all floats
// rendered through ie::FormatDouble so the bytes are locale-independent
// and shortest-round-trip — and folded into an FNV-1a digest.
//
// Two layers of protection:
//   1. Cross-thread byte-stability (strict, always on): for a fixed
//      (ranker, detector, seed) the digest must be identical at
//      scoring_threads 1, 2, and 8. Any divergence means the threaded
//      re-rank or a hash-order dependence leaked into results.
//   2. Pinned golden digests: the digest must equal the recorded
//      constant, catching silent behavior drift from refactors that
//      "look" equivalent (map-iteration reorderings, float reassociation,
//      format changes). The pins assume one floating environment; on a
//      toolchain with a different libm set IE_GOLDEN_SKIP_PIN=1 to keep
//      layer 1 while skipping layer 2, and re-pin deliberately.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/string_util.h"
#include "pipeline/pipeline.h"
#include "test_util.h"

namespace ie {
namespace {

// 64-bit FNV-1a. Stable by construction (no library hashing involved).
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= 1099511628211ull;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, 8);
  }
  /// Doubles go through FormatDouble: the digest pins the exact bytes an
  /// export would contain, not a bit-pattern that could mask format bugs.
  void Double(double v) { Str(FormatDouble(v)); }

  std::string Hex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kDigits[(state_ >> (4 * i)) & 0xF];
    }
    return out;
  }

 private:
  uint64_t state_ = 14695981039346656037ull;
};

std::string RunDigest(const SharedContext& context,
                      const PipelineResult& result) {
  Digest d;
  d.U64(result.processing_order.size());
  for (DocId doc : result.processing_order) d.U64(doc);
  for (uint8_t useful : result.processed_useful) d.U64(useful);
  d.U64(result.update_positions.size());
  for (size_t pos : result.update_positions) d.U64(pos);
  d.U64(result.warmup_documents);
  // Ranked tuple stream: the extractions in consumption order — the
  // artifact the paper's user actually receives.
  for (DocId doc : result.processing_order) {
    for (const ExtractedTuple& tuple : context.outcomes->tuples(doc)) {
      d.U64(static_cast<uint64_t>(tuple.relation));
      d.Str(tuple.attr1);
      d.Str(tuple.attr2);
      d.U64(tuple.sentence);
    }
  }
  d.U64(result.final_weights.size());
  for (const auto& [id, weight] : result.final_weights) {
    d.U64(id);
    d.Double(weight);
  }
  d.Double(result.extraction_seconds);
  return d.Hex();
}

struct GoldenCase {
  RankerKind ranker;
  UpdateKind update;
  uint64_t seed;
  /// Expected digest; pinned from the reference toolchain.
  const char* pinned;
};

class DeterminismGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DeterminismGoldenTest, ByteStableAcrossThreadsAndPinned) {
  const GoldenCase param = GetParam();
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config = PipelineConfig::Defaults(
      param.ranker, SamplerKind::kSRS, param.update, param.seed);
  config.sample_size = 120;
  // The flight recorder is a passive observer: running with it on must
  // reproduce the pinned digests bit for bit (inert no-op in obs-off).
  config.record_iterations = true;

  std::string first;
  for (size_t threads : {1u, 2u, 8u}) {
    config.scoring_threads = threads;
    const PipelineResult result =
        AdaptiveExtractionPipeline::Run(context, config);
    ASSERT_FALSE(result.final_weights.empty());
    // final_weights must arrive id-sorted: the facade guarantee.
    for (size_t i = 1; i < result.final_weights.size(); ++i) {
      ASSERT_LT(result.final_weights[i - 1].first,
                result.final_weights[i].first);
    }
    const std::string digest = RunDigest(context, result);
    if (first.empty()) {
      first = digest;
    } else {
      EXPECT_EQ(digest, first)
          << "digest diverged at scoring_threads=" << threads;
    }
  }

  if (std::getenv("IE_GOLDEN_SKIP_PIN") != nullptr) {
    GTEST_LOG_(INFO) << "IE_GOLDEN_SKIP_PIN set; computed digest " << first;
    return;
  }
  EXPECT_EQ(first, param.pinned)
      << "golden digest drifted — if the change is intentional, re-pin "
         "with the digest above (see DESIGN.md §12)";
}

INSTANTIATE_TEST_SUITE_P(
    RankersAndSeeds, DeterminismGoldenTest,
    ::testing::Values(
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kModC, 1,
                   "54f792feff0fe676"},
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kModC, 7,
                   "117e9de66fedc05a"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kModC, 1,
                   "e49e16915087925a"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kModC, 7,
                   "7e3674ddc89acdb3"},
        // Top-K rows pin the detector's trigger positions, which the
        // processing order and update positions fold into the digest.
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kTopK, 1,
                   "3d5f2ab59c9f1b14"},
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kTopK, 7,
                   "398a06f128e0c7b9"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kTopK, 1,
                   "dfbb93b5247a40bf"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kTopK, 7,
                   "0b363c2d48e92bdc"}));

}  // namespace
}  // namespace ie
