// Fuzzes the AEMM model container (src/io/model_io.cc) end to end:
// arbitrary bytes go through DeserializeModel — section-table walk, CRC
// checks, then the deep per-section parses (feature plan, fitted transform
// state, forest trees) and the width chain between them. Any outcome but a
// clean Status or a valid matcher is a finding, and every accepted matcher
// must score rows of its generator's width: three all-NaN rows go through
// every transform's Apply and the forest walk. Seeded with both synthetic
// containers and a real trained container (fuzz/corpus/model_io/), so the
// deep parse gets genuine coverage, not just header rejections.
#include "fuzz/fuzzer_util.h"

#include <limits>

#include "io/model_io.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string bytes(reinterpret_cast<const char*>(data), size);
  auto matcher = autoem::io::DeserializeModel(bytes);
  if (!matcher.ok()) return 0;

  autoem::Matrix rows(3, matcher->feature_generator().num_features(),
                      std::numeric_limits<double>::quiet_NaN());
  AUTOEM_FUZZ_ASSERT(
      matcher->automl_result().model.PredictProba(rows).size() == 3);

  // An accepted container must re-serialize to something that loads again —
  // the save/load pair stays closed under fuzzer-found "valid" inputs.
  std::string out;
  AUTOEM_FUZZ_ASSERT(autoem::io::SerializeModel(*matcher, &out).ok());
  AUTOEM_FUZZ_ASSERT(autoem::io::DeserializeModel(out).ok());
  return 0;
}
