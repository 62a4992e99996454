#include "features/type_inference.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace autoem {

namespace {

struct CellStats {
  size_t n_bool = 0;
  size_t n_number = 0;
  size_t n_string = 0;
  size_t total_words = 0;  // across string cells
};

void Accumulate(const Table& t, size_t attr, CellStats* stats) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Value& v = t.cell(r, attr);
    if (v.is_null()) continue;
    if (v.is_bool()) {
      ++stats->n_bool;
    } else if (v.is_number()) {
      ++stats->n_number;
    } else {
      ++stats->n_string;
      stats->total_words += SplitWhitespace(v.AsString()).size();
    }
  }
}

}  // namespace

AttributeClass InferAttributeClass(const Table& left, const Table& right,
                                   size_t attr_index) {
  AUTOEM_CHECK(left.schema() == right.schema());
  AUTOEM_CHECK(attr_index < left.schema().num_attributes());
  CellStats stats;
  Accumulate(left, attr_index, &stats);
  Accumulate(right, attr_index, &stats);

  size_t n = stats.n_bool + stats.n_number + stats.n_string;
  if (n == 0) return AttributeClass::kSingleWordString;
  // Majority typed cells decide the base type, matching Magellan's
  // "column type" heuristic on messy data.
  if (stats.n_bool * 2 > n) return AttributeClass::kBoolean;
  if (stats.n_number * 2 > n) return AttributeClass::kNumeric;

  double avg_words = stats.n_string > 0
                         ? static_cast<double>(stats.total_words) /
                               static_cast<double>(stats.n_string)
                         : 1.0;
  if (avg_words <= 1.0) return AttributeClass::kSingleWordString;
  if (avg_words <= 5.0) return AttributeClass::kShortString;
  if (avg_words <= 10.0) return AttributeClass::kMediumString;
  return AttributeClass::kLongString;
}

std::vector<AttributeClass> InferAllAttributeClasses(const Table& left,
                                                     const Table& right) {
  std::vector<AttributeClass> out;
  out.reserve(left.schema().num_attributes());
  for (size_t a = 0; a < left.schema().num_attributes(); ++a) {
    out.push_back(InferAttributeClass(left, right, a));
  }
  return out;
}

}  // namespace autoem
