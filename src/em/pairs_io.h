#ifndef AUTOEM_EM_PAIRS_IO_H_
#define AUTOEM_EM_PAIRS_IO_H_

#include "common/status.h"
#include "table/table.h"

namespace autoem {

/// Tabular interchange format for candidate/labeled pairs, used by the CLI
/// and the dataset exporter: columns `ltable_id,rtable_id,label`
/// (label −1 = unlabeled).

/// Renders a pair list as a Table in the interchange schema.
Table PairsToTable(const std::vector<RecordPair>& pairs);

/// Parses the interchange schema back into pairs. Each id must be a
/// non-negative integer below its table's row count (OutOfRange when it is
/// too large, InvalidArgument when it is not an integer); each label must
/// be −1, 0, 1 or empty. A missing `label` column (or null cells in it)
/// yields label −1.
Result<std::vector<RecordPair>> PairsFromTable(const Table& table,
                                               size_t left_rows,
                                               size_t right_rows);

}  // namespace autoem

#endif  // AUTOEM_EM_PAIRS_IO_H_
