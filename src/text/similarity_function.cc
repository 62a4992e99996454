#include "text/similarity_function.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "text/similarity.h"

namespace autoem {

const char* MeasureName(Measure m) {
  switch (m) {
    case Measure::kLevenshteinDistance:
      return "Levenshtein Distance";
    case Measure::kLevenshteinSimilarity:
      return "Levenshtein Similarity";
    case Measure::kJaro:
      return "Jaro Distance";
    case Measure::kJaroWinkler:
      return "Jaro-Winkler Distance";
    case Measure::kExactMatch:
      return "Exact Match";
    case Measure::kNeedlemanWunsch:
      return "Needleman-Wunsch Algorithm";
    case Measure::kSmithWaterman:
      return "Smith-Waterman Algorithm";
    case Measure::kMongeElkan:
      return "Monge-Elkan Algorithm";
    case Measure::kOverlapCoefficient:
      return "Overlap Coefficient";
    case Measure::kDice:
      return "Dice Similarity";
    case Measure::kCosine:
      return "Cosine Similarity";
    case Measure::kJaccard:
      return "Jaccard Similarity";
    case Measure::kAbsoluteNorm:
      return "Absolute Norm";
  }
  return "?";
}

std::string SimFunction::Name() const {
  std::string out = "(";
  out += MeasureName(measure);
  out += ", ";
  out += TokenizerName(tokenizer);
  out += ")";
  return out;
}

bool SimFunction::IsTokenMeasure() const {
  switch (measure) {
    case Measure::kOverlapCoefficient:
    case Measure::kDice:
    case Measure::kCosine:
    case Measure::kJaccard:
      return true;
    default:
      return false;
  }
}

double SimFunction::ApplyTokens(const std::vector<std::string>& a_tokens,
                                const std::vector<std::string>& b_tokens) const {
  switch (measure) {
    case Measure::kOverlapCoefficient:
      return OverlapCoefficient(a_tokens, b_tokens);
    case Measure::kDice:
      return DiceSimilarity(a_tokens, b_tokens);
    case Measure::kCosine:
      return CosineSimilarity(a_tokens, b_tokens);
    case Measure::kJaccard:
      return JaccardSimilarity(a_tokens, b_tokens);
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

double SimFunction::ApplyTokenIds(const std::vector<uint32_t>& a_ids,
                                  const std::vector<uint32_t>& b_ids) const {
  return ApplySetSizes(a_ids.size(), b_ids.size(),
                       SortedIdIntersectionSize(a_ids, b_ids));
}

double SimFunction::ApplySetSizes(size_t size_a, size_t size_b,
                                  size_t common) const {
  switch (measure) {
    case Measure::kOverlapCoefficient:
      return OverlapFromSizes(size_a, size_b, common);
    case Measure::kDice:
      return DiceFromSizes(size_a, size_b, common);
    case Measure::kCosine:
      return CosineFromSizes(size_a, size_b, common);
    case Measure::kJaccard:
      return JaccardFromSizes(size_a, size_b, common);
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

double SimFunction::Apply(std::string_view a, std::string_view b) const {
  switch (measure) {
    case Measure::kLevenshteinDistance:
      return static_cast<double>(LevenshteinDistance(a, b));
    case Measure::kLevenshteinSimilarity:
      return LevenshteinSimilarity(a, b);
    case Measure::kJaro:
      return JaroSimilarity(a, b);
    case Measure::kJaroWinkler:
      return JaroWinklerSimilarity(a, b);
    case Measure::kExactMatch:
      return ExactMatch(a, b);
    case Measure::kNeedlemanWunsch:
      return NeedlemanWunsch(a, b);
    case Measure::kSmithWaterman:
      return SmithWaterman(a, b);
    case Measure::kMongeElkan:
      return MongeElkan(a, b);
    case Measure::kOverlapCoefficient:
    case Measure::kDice:
    case Measure::kCosine:
    case Measure::kJaccard:
      return ApplyTokens(Tokenize(tokenizer, a), Tokenize(tokenizer, b));
    case Measure::kAbsoluteNorm: {
      double va;
      double vb;
      if (!ParseCellNumber(a, &va) || !ParseCellNumber(b, &vb)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return AbsoluteNorm(va, vb);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

const std::vector<SimFunction>& AllStringFunctions() {
  // Table II, rows 1-16.
  static const std::vector<SimFunction>& kFuncs =
      *new std::vector<SimFunction>{
          {Measure::kLevenshteinDistance, TokenizerKind::kNone},
          {Measure::kLevenshteinSimilarity, TokenizerKind::kNone},
          {Measure::kJaro, TokenizerKind::kNone},
          {Measure::kExactMatch, TokenizerKind::kNone},
          {Measure::kJaroWinkler, TokenizerKind::kNone},
          {Measure::kNeedlemanWunsch, TokenizerKind::kNone},
          {Measure::kSmithWaterman, TokenizerKind::kNone},
          {Measure::kMongeElkan, TokenizerKind::kNone},
          {Measure::kOverlapCoefficient, TokenizerKind::kWhitespace},
          {Measure::kDice, TokenizerKind::kWhitespace},
          {Measure::kCosine, TokenizerKind::kWhitespace},
          {Measure::kJaccard, TokenizerKind::kWhitespace},
          {Measure::kOverlapCoefficient, TokenizerKind::kQGram3},
          {Measure::kDice, TokenizerKind::kQGram3},
          {Measure::kCosine, TokenizerKind::kQGram3},
          {Measure::kJaccard, TokenizerKind::kQGram3},
      };
  return kFuncs;
}

const std::vector<SimFunction>& AllNumericFunctions() {
  // Table II, rows 17-20 (identical to Table I rows 22-25).
  static const std::vector<SimFunction>& kFuncs =
      *new std::vector<SimFunction>{
          {Measure::kLevenshteinDistance, TokenizerKind::kNone},
          {Measure::kLevenshteinSimilarity, TokenizerKind::kNone},
          {Measure::kExactMatch, TokenizerKind::kNone},
          {Measure::kAbsoluteNorm, TokenizerKind::kNone},
      };
  return kFuncs;
}

const std::vector<SimFunction>& AllBooleanFunctions() {
  static const std::vector<SimFunction>& kFuncs =
      *new std::vector<SimFunction>{
          {Measure::kExactMatch, TokenizerKind::kNone},
      };
  return kFuncs;
}

}  // namespace autoem
