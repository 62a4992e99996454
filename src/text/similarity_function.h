#ifndef AUTOEM_TEXT_SIMILARITY_FUNCTION_H_
#define AUTOEM_TEXT_SIMILARITY_FUNCTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/tokenizer.h"

namespace autoem {

/// The similarity measures used in the paper's Table I / Table II.
enum class Measure {
  kLevenshteinDistance,
  kLevenshteinSimilarity,
  kJaro,
  kJaroWinkler,
  kExactMatch,
  kNeedlemanWunsch,
  kSmithWaterman,
  kMongeElkan,
  kOverlapCoefficient,
  kDice,
  kCosine,
  kJaccard,
  kAbsoluteNorm,
};

/// A (measure, tokenizer) pair — one row of Table I / Table II. Sequence
/// measures use TokenizerKind::kNone; set measures use Space or 3-gram.
struct SimFunction {
  Measure measure;
  TokenizerKind tokenizer = TokenizerKind::kNone;

  /// "(Jaccard Similarity, Space)"-style name matching the paper's tables.
  std::string Name() const;

  /// Computes the similarity between two attribute values rendered as
  /// strings. kAbsoluteNorm parses both sides as numbers and returns NaN if
  /// either fails to parse; all other measures operate on the raw strings.
  double Apply(std::string_view a, std::string_view b) const;

  /// True when the measure consumes token *sets* (Overlap/Dice/Cosine/
  /// Jaccard), i.e. when `tokenizer` participates in Apply.
  bool IsTokenMeasure() const;

  /// Token-set measures on pre-tokenized inputs: bit-identical to Apply on
  /// the strings the tokens came from. Callers (the feature-generation token
  /// cache) tokenize each record once instead of once per pair per feature.
  /// Precondition: IsTokenMeasure().
  double ApplyTokens(const std::vector<std::string>& a_tokens,
                     const std::vector<std::string>& b_tokens) const;

  /// Token-set measures on interned sorted-unique token IDs (the
  /// TableTokenCache fast path): a single linear merge per pair, bit-identical
  /// to ApplyTokens on the string tokens the IDs were interned from as long
  /// as both sides used the same TokenInterner. Precondition:
  /// IsTokenMeasure().
  double ApplyTokenIds(const std::vector<uint32_t>& a_ids,
                       const std::vector<uint32_t>& b_ids) const;

  /// Token-set measures from the set sizes |A|, |B| and |A ∩ B| alone: the
  /// final expression every set path ends in. Precondition:
  /// IsTokenMeasure().
  double ApplySetSizes(size_t size_a, size_t size_b, size_t common) const;
};

/// Short display name of a measure, e.g. "Jaccard Similarity".
const char* MeasureName(Measure m);

/// All sixteen string similarity functions of Table II (8 sequence measures
/// plus {Overlap, Dice, Cosine, Jaccard} × {Space, 3-gram}).
const std::vector<SimFunction>& AllStringFunctions();

/// The four numeric functions shared by Table I and Table II: Levenshtein
/// distance/similarity on the digit strings, exact match, absolute norm.
const std::vector<SimFunction>& AllNumericFunctions();

/// The single boolean function: exact match.
const std::vector<SimFunction>& AllBooleanFunctions();

}  // namespace autoem

#endif  // AUTOEM_TEXT_SIMILARITY_FUNCTION_H_
