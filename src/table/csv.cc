#include "table/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace autoem {

Result<std::vector<std::vector<std::string>>> ParseCsvCells(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;

  size_t i = 0;
  const size_t n = text.size();
  auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
    cell_started = false;
  };
  auto end_row = [&] {
    end_cell();
    rows.push_back(std::move(row));
    row.clear();
  };

  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          cell += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        cell += c;
        ++i;
      }
    } else {
      if (c == '"' && !cell_started && cell.empty()) {
        in_quotes = true;
        cell_started = true;
        ++i;
      } else if (c == ',') {
        end_cell();
        ++i;
      } else if (c == '\r' && i + 1 < n && text[i + 1] == '\n') {
        ++i;  // CRLF: drop the '\r'; the '\n' ends the row below
      } else if (c == '\n') {
        end_row();
        ++i;
      } else {
        cell += c;
        cell_started = true;
        ++i;
      }
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  // Final row without trailing newline.
  if (cell_started || !cell.empty() || !row.empty()) end_row();
  return rows;
}

namespace {

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteCell(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Table> ParseCsv(const std::string& text,
                       const std::string& table_name) {
  auto cells = ParseCsvCells(text);
  if (!cells.ok()) return cells.status();
  const auto& rows = *cells;
  if (rows.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }
  Schema schema(rows[0]);
  Table table(table_name, schema);
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != schema.num_attributes()) {
      return Status::InvalidArgument(
          StrFormat("CSV row %zu has %zu cells, expected %zu", r,
                    rows[r].size(), schema.num_attributes()));
    }
    std::vector<Value> values;
    values.reserve(rows[r].size());
    for (const auto& raw : rows[r]) values.push_back(Value::Parse(raw));
    AUTOEM_RETURN_IF_ERROR(table.Append(Record(std::move(values))));
  }
  return table;
}

Result<Table> ReadCsv(const std::string& path, const std::string& table_name) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), table_name);
}

std::string ToCsvString(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (c > 0) out += ',';
    out += QuoteCell(schema.name(c));
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) out += ',';
      out += QuoteCell(table.cell(r, c).ToString());
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ToCsvString(table);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace autoem
