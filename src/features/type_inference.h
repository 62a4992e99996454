#ifndef AUTOEM_FEATURES_TYPE_INFERENCE_H_
#define AUTOEM_FEATURES_TYPE_INFERENCE_H_

#include <string>
#include <vector>

#include "table/table.h"

namespace autoem {

/// Magellan's six attribute data types (paper Table I). Classification is by
/// cell type and, for strings, by the *average* word count across both
/// tables — exactly the heuristic §III-B criticizes.
enum class AttributeClass {
  kBoolean,
  kNumeric,
  kSingleWordString,
  kShortString,   // 1-to-5-word
  kMediumString,  // 5-to-10-word
  kLongString,    // > 10 words
};

/// Infers the class of attribute `attr_index` from all non-null cells of the
/// two tables. Preconditions: both tables share a schema and the index is in
/// range. Attributes with no non-null cells classify as kSingleWordString.
AttributeClass InferAttributeClass(const Table& left, const Table& right,
                                   size_t attr_index);

/// Classifies every attribute of the (shared) schema.
std::vector<AttributeClass> InferAllAttributeClasses(const Table& left,
                                                     const Table& right);

}  // namespace autoem

#endif  // AUTOEM_FEATURES_TYPE_INFERENCE_H_
