#ifndef AUTOEM_TABLE_CSV_H_
#define AUTOEM_TABLE_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace autoem {

/// Reads an RFC-4180-style CSV (double-quote quoting, embedded commas,
/// quotes, and newlines inside quoted fields) into a Table. The first line
/// is the header; cells are typed via Value::Parse. NotFound when `path`
/// does not exist.
Result<Table> ReadCsv(const std::string& path, const std::string& table_name);

/// Parses CSV text directly (same dialect as ReadCsv); useful for tests.
Result<Table> ParseCsv(const std::string& text, const std::string& table_name);

/// Splits CSV text (same dialect) into rows of raw, untyped cells, with no
/// arity check: the reader under ParseCsv, for callers that want strings.
Result<std::vector<std::vector<std::string>>> ParseCsvCells(
    const std::string& text);

/// Writes a Table as CSV with a header line. Quotes cells containing commas,
/// quotes, or newlines.
Status WriteCsv(const Table& table, const std::string& path);

/// Serializes a Table to a CSV string (same dialect as WriteCsv).
std::string ToCsvString(const Table& table);

}  // namespace autoem

#endif  // AUTOEM_TABLE_CSV_H_
