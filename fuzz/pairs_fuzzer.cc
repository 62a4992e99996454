// Fuzzes the pairs reader (src/em/pairs_io.cc) behind the CSV reader: the
// first two bytes are the left and right tables' row counts, the rest goes
// through ParseCsv and then PairsFromTable. Every input must either fail
// with a clean Status or yield one pair per row whose ids index the tables
// and whose label is -1, 0 or 1; accepted pairs must come back unchanged
// through PairsToTable -> PairsFromTable.
#include "fuzz/fuzzer_util.h"

#include "em/pairs_io.h"
#include "table/csv.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  autoem::fuzz::FuzzInput input(data, size);
  const size_t left_rows = input.Byte();
  const size_t right_rows = input.Byte();
  auto table = autoem::ParseCsv(input.Rest(), "pairs");
  if (!table.ok()) return 0;
  auto pairs = autoem::PairsFromTable(*table, left_rows, right_rows);
  if (!pairs.ok()) return 0;

  AUTOEM_FUZZ_ASSERT(pairs->size() == table->num_rows());
  for (const autoem::RecordPair& pair : *pairs) {
    AUTOEM_FUZZ_ASSERT(pair.left_id < left_rows);
    AUTOEM_FUZZ_ASSERT(pair.right_id < right_rows);
    AUTOEM_FUZZ_ASSERT(pair.label >= -1 && pair.label <= 1);
  }
  auto again = autoem::PairsFromTable(autoem::PairsToTable(*pairs), left_rows,
                                      right_rows);
  AUTOEM_FUZZ_ASSERT(again.ok());
  AUTOEM_FUZZ_ASSERT(again->size() == pairs->size());
  for (size_t i = 0; i < pairs->size(); ++i) {
    AUTOEM_FUZZ_ASSERT((*again)[i].left_id == (*pairs)[i].left_id);
    AUTOEM_FUZZ_ASSERT((*again)[i].right_id == (*pairs)[i].right_id);
    AUTOEM_FUZZ_ASSERT((*again)[i].label == (*pairs)[i].label);
  }
  return 0;
}
