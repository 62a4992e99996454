// Differential fuzzing of the string kernels (src/text/similarity.h): the
// input is split into two strings, and every fast kernel must equal its
// `reference::` twin bit for bit, as must both scores of the one-pass
// Needleman-Wunsch and Smith-Waterman kernel. Each string is copied into
// its own exactly sized heap block, so under ASan a load one byte past
// either end fails the run.
//
// A second leg fuzzes pair featurization: each string is split at '|' into
// up to three cells of a one-attribute table, and for both generators every
// cross pair's GenerateChunk row (shared per-attribute intermediates,
// Monge-Elkan from interned tokens and the Jaro-Winkler memo) must equal
// the per-function GenerateRow bit for bit.
#include "fuzz/fuzzer_util.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "features/feature_gen.h"
#include "text/similarity.h"

namespace {

// The references are quadratic; longer strings add time, not paths.
constexpr size_t kMaxStringBytes = 1024;

bool SameBits(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// Up to three cells of `s`, split at '|'; the third keeps any later '|'.
// Each piece is typed as a CSV cell is: empty is null, and numbers and
// booleans plan the numeric and boolean functions.
autoem::Table OneColumnTable(std::string_view s) {
  autoem::Table table("t", autoem::Schema({"text"}));
  for (int cell = 0; cell < 3; ++cell) {
    const size_t bar = cell < 2 ? s.find('|') : std::string_view::npos;
    const std::string_view piece = s.substr(0, bar);
    AUTOEM_FUZZ_ASSERT(
        table.Append(autoem::Record({autoem::Value::Parse(piece)})).ok());
    if (bar == std::string_view::npos) break;
    s.remove_prefix(bar + 1);
  }
  return table;
}

void CheckFeaturization(std::string_view a, std::string_view b) {
  using namespace autoem;
  PairSet set;
  set.left = OneColumnTable(a);
  set.right = OneColumnTable(b);
  for (size_t l = 0; l < set.left.num_rows(); ++l) {
    for (size_t r = 0; r < set.right.num_rows(); ++r) {
      set.pairs.push_back({l, r, 0});
    }
  }
  AutoMlEmFeatureGenerator automl_em(/*include_tfidf=*/true);
  MagellanFeatureGenerator magellan;
  for (FeatureGenerator* gen :
       std::initializer_list<FeatureGenerator*>{&automl_em, &magellan}) {
    // All-null columns plan no features.
    if (!gen->Plan(set.left, set.right).ok()) continue;
    FeatureGenerator::PreparedTables prepared =
        gen->Prepare(set.left, set.right);
    const Matrix X =
        gen->GenerateChunk(prepared, set.pairs, 0, set.pairs.size());
    for (size_t i = 0; i < set.pairs.size(); ++i) {
      const RecordPair& pair = set.pairs[i];
      const std::vector<double> want = gen->GenerateRow(
          set.left.row(pair.left_id), set.right.row(pair.right_id));
      AUTOEM_FUZZ_ASSERT(want.size() == X.cols());
      AUTOEM_FUZZ_ASSERT(std::memcmp(want.data(), X.RowPtr(i),
                                     X.cols() * sizeof(double)) == 0);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace autoem;
  // Layout: big-endian u16 length of a, then a, then b (fuzz::KernelSeeds).
  fuzz::FuzzInput in(data, size);
  size_t len_a = size_t{in.Byte()} << 8;
  len_a |= in.Byte();
  const std::string a_bytes = in.Bytes(std::min(len_a, kMaxStringBytes));
  const std::string b_bytes = in.Bytes(kMaxStringBytes);
  const std::vector<char> a_block(a_bytes.begin(), a_bytes.end());
  const std::vector<char> b_block(b_bytes.begin(), b_bytes.end());
  const std::string_view a(a_block.data(), a_block.size());
  const std::string_view b(b_block.data(), b_block.size());

  AUTOEM_FUZZ_ASSERT(LevenshteinDistance(a, b) ==
                     reference::LevenshteinDistance(a, b));
  AUTOEM_FUZZ_ASSERT(
      SameBits(JaroSimilarity(a, b), reference::JaroSimilarity(a, b)));
  AUTOEM_FUZZ_ASSERT(SameBits(JaroWinklerSimilarity(a, b),
                              reference::JaroWinklerSimilarity(a, b)));
  AUTOEM_FUZZ_ASSERT(
      SameBits(NeedlemanWunsch(a, b), reference::NeedlemanWunsch(a, b)));
  AUTOEM_FUZZ_ASSERT(
      SameBits(SmithWaterman(a, b), reference::SmithWaterman(a, b)));
  const AlignmentScores both = NeedlemanWunschAndSmithWaterman(a, b);
  AUTOEM_FUZZ_ASSERT(
      SameBits(both.needleman_wunsch, reference::NeedlemanWunsch(a, b)));
  AUTOEM_FUZZ_ASSERT(
      SameBits(both.smith_waterman, reference::SmithWaterman(a, b)));
  AUTOEM_FUZZ_ASSERT(SameBits(MongeElkan(a, b), reference::MongeElkan(a, b)));
  CheckFeaturization(a, b);
  return 0;
}
