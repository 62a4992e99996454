// Fuzzes the AEMK checkpoint container (src/automl/checkpoint.cc and
// src/active/active_checkpoint.cc): both payload kinds are parsed from the
// same bytes, covering the envelope (magic/version/kind/size/CRC) and the
// two payload codecs. Accepted parses must be stable under one
// serialize/reparse round: re-encoding the parsed state and parsing it
// again yields byte-identical re-encodings (the canonical-form fixpoint).
#include "fuzz/fuzzer_util.h"

#include "active/active_checkpoint.h"
#include "automl/checkpoint.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string bytes(reinterpret_cast<const char*>(data), size);

  auto search = autoem::DeserializeSearchCheckpoint(bytes);
  if (search.ok()) {
    std::string canonical = autoem::SerializeSearchCheckpoint(*search);
    auto again = autoem::DeserializeSearchCheckpoint(canonical);
    AUTOEM_FUZZ_ASSERT(again.ok());
    AUTOEM_FUZZ_ASSERT(autoem::SerializeSearchCheckpoint(*again) ==
                       canonical);
  }

  auto active = autoem::DeserializeActiveCheckpoint(bytes);
  if (active.ok()) {
    std::string canonical = autoem::SerializeActiveCheckpoint(*active);
    auto again = autoem::DeserializeActiveCheckpoint(canonical);
    AUTOEM_FUZZ_ASSERT(again.ok());
    AUTOEM_FUZZ_ASSERT(autoem::SerializeActiveCheckpoint(*again) ==
                       canonical);
  }
  return 0;
}
