// Differential fuzzing of the string kernels (src/text/similarity.h): the
// input is split into two strings, and every fast kernel must equal its
// `reference::` twin bit for bit. Each string is copied into its own
// exactly sized heap block, so under ASan a load one byte past either end
// fails the run.
#include "fuzz/fuzzer_util.h"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <vector>

#include "text/similarity.h"

namespace {

// The references are quadratic; longer strings add time, not paths.
constexpr size_t kMaxStringBytes = 1024;

bool SameBits(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
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
  AUTOEM_FUZZ_ASSERT(SameBits(MongeElkan(a, b), reference::MongeElkan(a, b)));
  return 0;
}
