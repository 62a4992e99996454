#include "em/pairs_io.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace autoem {

Table PairsToTable(const std::vector<RecordPair>& pairs) {
  Table t("pairs", Schema({"ltable_id", "rtable_id", "label"}));
  for (const auto& p : pairs) {
    Status st = t.Append(Record({Value(static_cast<double>(p.left_id)),
                                 Value(static_cast<double>(p.right_id)),
                                 Value(static_cast<double>(p.label))}));
    AUTOEM_CHECK(st.ok());  // fixed arity; cannot fail
  }
  return t;
}

namespace {

// The row a pairs-table id cell names: a finite, integral number in
// [0, rows). Checked before the cast, since casting a double outside
// size_t's range is undefined behaviour.
Status RowId(const Value& v, size_t rows, size_t row, const char* column,
             size_t* out) {
  if (!v.is_number()) {
    return Status::InvalidArgument(
        StrFormat("pairs row %zu: non-numeric %s", row, column));
  }
  const double id = v.AsNumber();
  if (!std::isfinite(id) || id != std::trunc(id) || id < 0) {
    return Status::InvalidArgument(StrFormat(
        "pairs row %zu: %s %g is not a non-negative integer", row, column,
        id));
  }
  if (id >= static_cast<double>(rows)) {
    return Status::OutOfRange(StrFormat(
        "pairs row %zu references row outside the tables", row));
  }
  *out = static_cast<size_t>(id);
  return Status::OK();
}

}  // namespace

Result<std::vector<RecordPair>> PairsFromTable(const Table& table,
                                               size_t left_rows,
                                               size_t right_rows) {
  int l = table.schema().IndexOf("ltable_id");
  int r = table.schema().IndexOf("rtable_id");
  int lab = table.schema().IndexOf("label");
  if (l < 0 || r < 0) {
    return Status::InvalidArgument(
        "pairs table needs ltable_id and rtable_id columns");
  }
  std::vector<RecordPair> pairs;
  pairs.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    RecordPair pair;
    AUTOEM_RETURN_IF_ERROR(
        RowId(table.cell(i, l), left_rows, i, "ltable_id", &pair.left_id));
    AUTOEM_RETURN_IF_ERROR(
        RowId(table.cell(i, r), right_rows, i, "rtable_id", &pair.right_id));
    pair.label = -1;  // no label column, or an empty cell
    if (lab >= 0 && !table.cell(i, lab).is_null()) {
      const Value& label = table.cell(i, lab);
      const bool valid = label.is_number() && (label.AsNumber() == -1.0 ||
                                               label.AsNumber() == 0.0 ||
                                               label.AsNumber() == 1.0);
      if (!valid) {
        return Status::InvalidArgument(StrFormat(
            "pairs row %zu: label is not -1, 0, 1 or empty", i));
      }
      pair.label = static_cast<int>(label.AsNumber());
    }
    pairs.push_back(pair);
  }
  return pairs;
}

}  // namespace autoem
