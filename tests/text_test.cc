#include <gtest/gtest.h>

#include <cmath>
#include <string_view>

#include "common/rng.h"
#include "table/value.h"
#include "text/similarity.h"
#include "text/similarity_function.h"
#include "text/tokenizer.h"

namespace autoem {
namespace {

// ---- tokenizers ----------------------------------------------------------------

TEST(TokenizerTest, WhitespaceBasic) {
  auto toks = WhitespaceTokenize("new york  city");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "new");
  EXPECT_EQ(toks[2], "city");
}

TEST(TokenizerTest, WhitespaceEmpty) {
  EXPECT_TRUE(WhitespaceTokenize("").empty());
  EXPECT_TRUE(WhitespaceTokenize("   ").empty());
}

TEST(TokenizerTest, QGramPadding) {
  auto grams = QGramTokenize("ab", 3);
  ASSERT_EQ(grams.size(), 4u);
  EXPECT_EQ(grams[0], "##a");
  EXPECT_EQ(grams[1], "#ab");
  EXPECT_EQ(grams[2], "ab#");
  EXPECT_EQ(grams[3], "b##");
}

TEST(TokenizerTest, QGramCountFormula) {
  // With q-1 padding on both sides, an n-char string yields n + q - 1 grams.
  for (size_t n = 1; n <= 12; ++n) {
    std::string s(n, 'x');
    EXPECT_EQ(QGramTokenize(s, 3).size(), n + 2);
  }
}

TEST(TokenizerTest, QGramEmptyInput) {
  EXPECT_TRUE(QGramTokenize("", 3).empty());
  EXPECT_TRUE(QGramTokenize("abc", 0).empty());
}

TEST(TokenizerTest, DispatchMatchesKind) {
  EXPECT_EQ(Tokenize(TokenizerKind::kNone, "a b").size(), 1u);
  EXPECT_EQ(Tokenize(TokenizerKind::kWhitespace, "a b").size(), 2u);
  EXPECT_EQ(Tokenize(TokenizerKind::kQGram3, "ab").size(), 4u);
}

TEST(TokenizerTest, Names) {
  EXPECT_STREQ(TokenizerName(TokenizerKind::kNone), "N/A");
  EXPECT_STREQ(TokenizerName(TokenizerKind::kWhitespace), "Space");
  EXPECT_STREQ(TokenizerName(TokenizerKind::kQGram3), "3-gram");
}

// ---- Levenshtein -----------------------------------------------------------------

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("new yrk", "new york"), 1);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
}

TEST(LevenshteinTest, SimilarityNormalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("new yrk", "new york"), 1.0 - 1.0 / 8, 1e-12);
}

// ---- Jaro / Jaro-Winkler ----------------------------------------------------------

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7667, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("martha", "marhta");
  double jw = JaroWinklerSimilarity("martha", "marhta");
  EXPECT_GT(jw, jaro);  // shared prefix "mar"
  EXPECT_NEAR(jw, 0.9611, 1e-3);
}

TEST(JaroWinklerTest, NoPrefixNoBoost) {
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "xbc"),
                   JaroSimilarity("abc", "xbc"));
}

// ---- alignment scores ---------------------------------------------------------------

TEST(NeedlemanWunschTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(NeedlemanWunsch("match", "match"), 1.0);
  EXPECT_DOUBLE_EQ(NeedlemanWunsch("", ""), 1.0);
}

TEST(NeedlemanWunschTest, AllMismatchIsZero) {
  // Raw alignment score -1 per position rescales to the bottom of [0, 1].
  EXPECT_DOUBLE_EQ(NeedlemanWunsch("aaaa", "bbbb"), 0.0);
}

TEST(NeedlemanWunschTest, EmptyVsNonEmptyIsZero) {
  EXPECT_DOUBLE_EQ(NeedlemanWunsch("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NeedlemanWunsch("abc", ""), 0.0);
}

TEST(NeedlemanWunschTest, PartialMatchBetweenExtremes) {
  double v = NeedlemanWunsch("kitten", "sitten");
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1.0);
}

TEST(SmithWatermanTest, LocalSubstringMatch) {
  // "york" appears fully in both; local alignment finds it.
  EXPECT_DOUBLE_EQ(SmithWaterman("york", "new york city"), 1.0);
  EXPECT_DOUBLE_EQ(SmithWaterman("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(SmithWaterman("", ""), 1.0);
}

TEST(MongeElkanTest, TokenBestMatch) {
  EXPECT_DOUBLE_EQ(MongeElkan("new york", "york new"), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkan("", ""), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkan("a", ""), 0.0);
  // Asymmetric by definition: mean over the left tokens.
  double ab = MongeElkan("arnie mortons", "arnie mortons of chicago");
  EXPECT_DOUBLE_EQ(ab, 1.0);
}

// ---- set measures ---------------------------------------------------------------------

std::vector<std::string> Toks(std::initializer_list<const char*> w) {
  return std::vector<std::string>(w.begin(), w.end());
}

TEST(SetSimilarityTest, JaccardPaperExample) {
  // Paper §III-B: jaccard("new york", "new york city") = 2/3.
  EXPECT_NEAR(JaccardSimilarity(Toks({"new", "york"}),
                                Toks({"new", "york", "city"})),
              2.0 / 3.0, 1e-12);
}

TEST(SetSimilarityTest, EmptySets) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Toks({"a"}), {}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(Toks({"a"}), {}), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(Toks({"a"}), {}), 0.0);
}

TEST(SetSimilarityTest, DuplicateTokensCollapse) {
  // Token *sets*: duplicates don't change the value.
  EXPECT_DOUBLE_EQ(JaccardSimilarity(Toks({"a", "a", "b"}), Toks({"a", "b"})),
                   1.0);
}

TEST(SetSimilarityTest, KnownValues) {
  auto a = Toks({"a", "b", "c"});
  auto b = Toks({"b", "c", "d"});
  EXPECT_NEAR(JaccardSimilarity(a, b), 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(DiceSimilarity(a, b), 2.0 * 2 / 6, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, b), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(OverlapCoefficient(a, b), 2.0 / 3.0, 1e-12);
}

TEST(SetSimilarityTest, OrderingDiceGeJaccard) {
  auto a = Toks({"x", "y", "z"});
  auto b = Toks({"x", "q"});
  EXPECT_GE(DiceSimilarity(a, b), JaccardSimilarity(a, b));
}

// ---- numeric -----------------------------------------------------------------------------

TEST(AbsoluteNormTest, Values) {
  EXPECT_DOUBLE_EQ(AbsoluteNorm(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(AbsoluteNorm(10.0, 10.0), 1.0);
  EXPECT_NEAR(AbsoluteNorm(10.0, 5.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(AbsoluteNorm(1.0, -1.0), 0.0);  // clamped
}

// ---- property tests over all string functions -----------------------------------------------

class StringFunctionProperty
    : public ::testing::TestWithParam<SimFunction> {};

TEST_P(StringFunctionProperty, IdenticalStringsScoreMaximal) {
  const SimFunction& f = GetParam();
  for (const char* s : {"a", "chicago", "new york city", "ab-1234"}) {
    double self = f.Apply(s, s);
    if (f.measure == Measure::kLevenshteinDistance) {
      EXPECT_DOUBLE_EQ(self, 0.0) << f.Name();
    } else {
      EXPECT_DOUBLE_EQ(self, 1.0) << f.Name() << " on " << s;
    }
  }
}

TEST_P(StringFunctionProperty, SymmetricUnlessAsymmetricByDesign) {
  const SimFunction& f = GetParam();
  if (f.measure == Measure::kMongeElkan) return;  // asymmetric by definition
  const char* pairs[][2] = {{"new york", "new yrk"},
                            {"abc", "xyz"},
                            {"golden dragon", "dragon golden palace"}};
  for (const auto& p : pairs) {
    EXPECT_NEAR(f.Apply(p[0], p[1]), f.Apply(p[1], p[0]), 1e-12) << f.Name();
  }
}

TEST_P(StringFunctionProperty, BoundedRange) {
  const SimFunction& f = GetParam();
  Rng rng(11);
  const char* samples[] = {"",      "a",         "ab",        "new york",
                           "12345", "golden dragon palace", "x y z w v u t"};
  for (const char* a : samples) {
    for (const char* b : samples) {
      double v = f.Apply(a, b);
      switch (f.measure) {
        case Measure::kLevenshteinDistance:
          EXPECT_GE(v, 0.0) << f.Name();
          break;
        default:
          EXPECT_GE(v, 0.0) << f.Name() << " '" << a << "' vs '" << b << "'";
          EXPECT_LE(v, 1.0 + 1e-12) << f.Name();
          break;
      }
    }
  }
}

TEST_P(StringFunctionProperty, PerturbationLowersSimilarity) {
  const SimFunction& f = GetParam();
  if (f.measure == Measure::kLevenshteinDistance) return;  // distance rises
  // A single character typo must not *increase* similarity.
  std::string base = "golden dragon palace";
  std::string typo = "golden dragqn palace";
  EXPECT_LE(f.Apply(base, typo), f.Apply(base, base) + 1e-12) << f.Name();
}

INSTANTIATE_TEST_SUITE_P(AllTableIIStringFunctions, StringFunctionProperty,
                         ::testing::ValuesIn(AllStringFunctions()));

// ---- registry ---------------------------------------------------------------------------------

TEST(SimFunctionRegistryTest, TableIICounts) {
  EXPECT_EQ(AllStringFunctions().size(), 16u);   // Table II rows 1-16
  EXPECT_EQ(AllNumericFunctions().size(), 4u);   // rows 17-20
  EXPECT_EQ(AllBooleanFunctions().size(), 1u);   // row 21
}

TEST(SimFunctionRegistryTest, NamesMatchPaperStyle) {
  SimFunction f{Measure::kJaccard, TokenizerKind::kWhitespace};
  EXPECT_EQ(f.Name(), "(Jaccard Similarity, Space)");
  SimFunction g{Measure::kLevenshteinDistance, TokenizerKind::kNone};
  EXPECT_EQ(g.Name(), "(Levenshtein Distance, N/A)");
}

TEST(SimFunctionRegistryTest, AbsoluteNormParsesNumbers) {
  SimFunction f{Measure::kAbsoluteNorm, TokenizerKind::kNone};
  EXPECT_NEAR(f.Apply("10", "5"), 0.5, 1e-12);
  EXPECT_TRUE(std::isnan(f.Apply("abc", "5")));
  EXPECT_TRUE(std::isnan(f.Apply("", "5")));
  // A cell that only starts with a number is text, as Value::Parse reads
  // it, even when the rest hides behind an embedded NUL.
  const std::string_view nul_cell("1\0junk", 6);
  EXPECT_TRUE(std::isnan(f.Apply(nul_cell, "2")));
  EXPECT_TRUE(std::isnan(f.Apply("2", nul_cell)));
  EXPECT_TRUE(Value::Parse(nul_cell).is_string());
}

}  // namespace
}  // namespace autoem
