// Differential and property tests for the fast similarity kernels and the
// flattened forest traversal (DESIGN.md §13). The scalar reference kernels
// under `autoem::reference` and the per-tree node walks are the oracles;
// every fast path must agree *exactly* — bit-identical doubles, equal
// integers — on random and hostile inputs. These tests are what license
// future rewrites of the fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "ml/models/decision_tree.h"
#include "ml/models/flat_forest.h"
#include "ml/models/random_forest.h"
#include "text/interner.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace autoem {
namespace {

// ---- input generators -------------------------------------------------------

std::string RandomString(Rng* rng, size_t len, int alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->UniformIndex(alphabet)));
  }
  return s;
}

std::string RandomBytes(Rng* rng, size_t len) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->UniformIndex(256)));
  }
  return s;
}

// Draws each byte from `alphabet`; repeat a byte to weight it.
std::string RandomText(Rng* rng, size_t len, std::string_view alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng->UniformIndex(alphabet.size())]);
  }
  return s;
}

// Half the bytes from the ones byte-oriented kernels most often get wrong
// (NUL, high bytes, every byte isspace() accepts), half uniform.
std::string RandomHostileBytes(Rng* rng, size_t len) {
  static const std::string kHostile("\0\x80\xC3\xFF \t\n\v\f\rab", 12);
  std::string s = RandomBytes(rng, len);
  for (char& c : s) {
    if (rng->UniformIndex(2) == 0) c = kHostile[rng->UniformIndex(12)];
  }
  return s;
}

// Hostile inputs: empties, embedded NULs, strings straddling the 64/128-char
// word boundaries of the bit-parallel kernel, long runs, and raw UTF-8
// multi-byte sequences (the kernels are byte-oriented; these must not
// confuse the per-byte tables).
std::vector<std::string> HostileStrings() {
  std::vector<std::string> v;
  v.push_back("");
  v.push_back(std::string(1, '\0'));
  v.push_back(std::string("a\0b", 3));
  v.push_back(std::string("\0\0\0\0", 4));
  v.push_back(std::string(63, 'x'));
  v.push_back(std::string(64, 'x'));
  v.push_back(std::string(65, 'x'));
  v.push_back(std::string(127, 'y'));
  v.push_back(std::string(128, 'y'));
  v.push_back(std::string(129, 'y'));
  v.push_back(std::string(300, 'z'));
  v.push_back("caf\xC3\xA9");                 // café
  v.push_back("\xE6\x9D\xB1\xE4\xBA\xAC");    // 東京
  v.push_back("na\xC3\xAFve na\xC3\xAFve");
  std::string mixed;
  for (int i = 0; i < 70; ++i) mixed += (i % 3 == 0) ? "\xC3\xA9" : "e";
  v.push_back(mixed);
  return v;
}

// ---- Levenshtein: bit-parallel vs reference DP ------------------------------

TEST(KernelPropertyLevenshtein, MatchesReferenceOnRandomStrings) {
  Rng rng(17);
  for (int iter = 0; iter < 400; ++iter) {
    // Small alphabet maximizes match density (the interesting case for the
    // bit-parallel Eq tables); lengths sweep across both word boundaries.
    std::string a = RandomString(&rng, rng.UniformIndex(200), 4);
    std::string b = RandomString(&rng, rng.UniformIndex(200), 4);
    EXPECT_EQ(LevenshteinDistance(a, b), reference::LevenshteinDistance(a, b))
        << "len a=" << a.size() << " len b=" << b.size();
  }
}

TEST(KernelPropertyLevenshtein, MatchesReferenceOnRandomBytes) {
  Rng rng(23);
  for (int iter = 0; iter < 200; ++iter) {
    std::string a = RandomBytes(&rng, rng.UniformIndex(150));
    std::string b = RandomBytes(&rng, rng.UniformIndex(150));
    EXPECT_EQ(LevenshteinDistance(a, b), reference::LevenshteinDistance(a, b));
  }
}

TEST(KernelPropertyLevenshtein, MatchesReferenceAtWordBoundaries) {
  // Exhaustive sweep of every length pair around the single-word (64) and
  // two-word (128) boundaries, where the blocked kernel's carry logic and
  // top-block score bit are easiest to get wrong.
  Rng rng(31);
  const size_t lens[] = {0, 1, 2, 31, 62, 63, 64, 65, 66,
                         126, 127, 128, 129, 130, 192, 200};
  for (size_t la : lens) {
    for (size_t lb : lens) {
      std::string a = RandomString(&rng, la, 3);
      std::string b = RandomString(&rng, lb, 3);
      EXPECT_EQ(LevenshteinDistance(a, b),
                reference::LevenshteinDistance(a, b))
          << "la=" << la << " lb=" << lb;
    }
  }
}

TEST(KernelPropertyLevenshtein, MatchesReferenceOnHostileInputs) {
  auto hostile = HostileStrings();
  for (const std::string& a : hostile) {
    for (const std::string& b : hostile) {
      EXPECT_EQ(LevenshteinDistance(a, b),
                reference::LevenshteinDistance(a, b))
          << "a.size=" << a.size() << " b.size=" << b.size();
    }
  }
}

TEST(KernelPropertyLevenshtein, KnownValues) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
  // Straddling the word boundary with a known single edit.
  std::string long_a(100, 'q');
  std::string long_b = long_a;
  long_b[50] = 'r';
  EXPECT_EQ(LevenshteinDistance(long_a, long_b), 1);
}

// ---- Jaro, Jaro-Winkler, NW, SW, Monge-Elkan: fast vs reference -------------

using StringKernelFn = double (*)(std::string_view, std::string_view);

struct KernelWithReference {
  const char* name;
  StringKernelFn fast;
  StringKernelFn reference;
};

const KernelWithReference kReferencedKernels[] = {
    {"JaroSimilarity", &JaroSimilarity, &reference::JaroSimilarity},
    {"JaroWinklerSimilarity", &JaroWinklerSimilarity,
     &reference::JaroWinklerSimilarity},
    {"NeedlemanWunsch", &NeedlemanWunsch, &reference::NeedlemanWunsch},
    {"SmithWaterman", &SmithWaterman, &reference::SmithWaterman},
    {"MongeElkan", &MongeElkan, &reference::MongeElkan},
};

// Bit-identical doubles, not merely equal ones.
void ExpectAllMatchReference(const std::string& a, const std::string& b) {
  for (const auto& k : kReferencedKernels) {
    EXPECT_EQ(std::bit_cast<uint64_t>(k.fast(a, b)),
              std::bit_cast<uint64_t>(k.reference(a, b)))
        << k.name << ": " << k.fast(a, b) << " vs " << k.reference(a, b)
        << " (len a=" << a.size() << " len b=" << b.size() << ")";
  }
}

TEST(KernelPropertySequence, MatchesReferenceOnRandomStrings) {
  Rng rng(83);
  // Without whitespace every string is one Monge-Elkan token; with it,
  // strings split into many short tokens that often repeat.
  for (std::string_view alphabet : {"abcd", "abc  \t"}) {
    for (int iter = 0; iter < 300; ++iter) {
      std::string a = RandomText(&rng, rng.UniformIndex(201), alphabet);
      std::string b = RandomText(&rng, rng.UniformIndex(201), alphabet);
      ExpectAllMatchReference(a, b);
    }
  }
}

TEST(KernelPropertySequence, MatchesReferenceOnRandomBytes) {
  Rng rng(89);
  for (int iter = 0; iter < 300; ++iter) {
    std::string a = RandomHostileBytes(&rng, rng.UniformIndex(201));
    std::string b = RandomHostileBytes(&rng, rng.UniformIndex(201));
    ExpectAllMatchReference(a, b);
  }
}

TEST(KernelPropertySequence, MatchesReferenceOnLengthGrid) {
  // Every length pair around the 8-lane step, the 16-byte cutoff below
  // which NW/SW stay scalar, and the 64-bit word edges of the bitset Jaro,
  // plus lengths many words and many lane steps long.
  Rng rng(97);
  const size_t lens[] = {0,   1,   2,   7,   8,   9,   15,  16,
                         17,  31,  62,  63,  64,  65,  66,  126,
                         127, 128, 129, 130, 192, 200, 300, 513};
  for (size_t la : lens) {
    for (size_t lb : lens) {
      ExpectAllMatchReference(RandomText(&rng, la, "abc "),
                              RandomText(&rng, lb, "abc "));
    }
  }
}

TEST(KernelPropertySequence, MatchesReferenceOnHostileInputs) {
  auto hostile = HostileStrings();
  for (const std::string& a : hostile) {
    for (const std::string& b : hostile) ExpectAllMatchReference(a, b);
  }
}

TEST(KernelPropertySequence, MatchesReferenceAtAndPastLaneLimit) {
  // At the limit NW and SW still run in int16 lanes, with border cells at
  // -limit; one byte past it they hand over to the reference.
  Rng rng(101);
  const std::string b = RandomText(&rng, 40, "abcd ");
  for (size_t len : {kAlignmentLaneLimit, kAlignmentLaneLimit + 1}) {
    const std::string a = RandomText(&rng, len, "abcd ");
    ExpectAllMatchReference(a, b);
    ExpectAllMatchReference(b, a);
  }
}

// ---- string-kernel properties: symmetry, identity, range --------------------

using StringKernel = double (*)(std::string_view, std::string_view);

struct NamedKernel {
  const char* name;
  StringKernel fn;
};

const NamedKernel kStringKernels[] = {
    {"LevenshteinSimilarity", &LevenshteinSimilarity},
    {"JaroSimilarity", &JaroSimilarity},
    {"JaroWinklerSimilarity", &JaroWinklerSimilarity},
    {"ExactMatch", &ExactMatch},
    {"NeedlemanWunsch", &NeedlemanWunsch},
    {"SmithWaterman", &SmithWaterman},
    {"MongeElkan", &MongeElkan},
};

TEST(KernelPropertyStrings, SelfSimilarityIsOne) {
  Rng rng(41);
  std::vector<std::string> inputs = HostileStrings();
  for (int i = 0; i < 30; ++i) {
    inputs.push_back(RandomString(&rng, rng.UniformIndex(120), 6));
  }
  for (const auto& k : kStringKernels) {
    for (const std::string& s : inputs) {
      // Exact: Monge-Elkan's early exit relies on JW(x, x) being 1.0.
      EXPECT_EQ(k.fn(s, s), 1.0) << k.name << " len=" << s.size();
    }
  }
}

TEST(KernelPropertyStrings, SymmetricAndBounded) {
  Rng rng(43);
  std::vector<std::string> inputs = HostileStrings();
  for (int i = 0; i < 30; ++i) {
    inputs.push_back(RandomString(&rng, rng.UniformIndex(120), 4));
  }
  for (const auto& k : kStringKernels) {
    // Monge-Elkan is a mean over a's tokens: see its own test below.
    if (k.fn == &MongeElkan) continue;
    for (const std::string& a : inputs) {
      for (const std::string& b : inputs) {
        double ab = k.fn(a, b);
        double ba = k.fn(b, a);
        EXPECT_DOUBLE_EQ(ab, ba) << k.name;
        EXPECT_GE(ab, 0.0) << k.name;
        EXPECT_LE(ab, 1.0 + 1e-12) << k.name;
      }
    }
  }
}

TEST(KernelPropertyStrings, MongeElkanBoundedAndAsymmetric) {
  // Each token of a finds itself in b, not the other way round.
  EXPECT_EQ(MongeElkan("york", "new york city"), 1.0);
  EXPECT_LT(MongeElkan("new york city", "york"), 1.0);

  Rng rng(47);
  std::vector<std::string> single_tokens;
  for (const std::string& s : HostileStrings()) {
    if (!s.empty() && std::none_of(s.begin(), s.end(), [](char c) {
          return std::isspace(static_cast<unsigned char>(c));
        })) {
      single_tokens.push_back(s);
    }
  }
  for (int i = 0; i < 30; ++i) {
    single_tokens.push_back(RandomString(&rng, 1 + rng.UniformIndex(120), 4));
  }
  // One token each: Monge-Elkan is Jaro-Winkler, which is symmetric.
  for (const std::string& a : single_tokens) {
    for (const std::string& b : single_tokens) {
      EXPECT_EQ(MongeElkan(a, b), JaroWinklerSimilarity(a, b));
      EXPECT_DOUBLE_EQ(MongeElkan(a, b), MongeElkan(b, a));
    }
  }
  // Many tokens each: still a mean of similarities in [0, 1].
  for (int iter = 0; iter < 500; ++iter) {
    std::string a = RandomText(&rng, rng.UniformIndex(120), "abc  \t");
    std::string b = RandomText(&rng, rng.UniformIndex(120), "abc  \t");
    double ab = MongeElkan(a, b);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
  }
}

// ---- token-set measures: ID merge vs string hash sets -----------------------

using TokenKernel = double (*)(const std::vector<std::string>&,
                               const std::vector<std::string>&);
using IdKernel = double (*)(const std::vector<uint32_t>&,
                            const std::vector<uint32_t>&);

struct NamedSetKernel {
  const char* name;
  TokenKernel strings;
  IdKernel ids;
};

const NamedSetKernel kSetKernels[] = {
    {"Jaccard", &JaccardSimilarity, &JaccardSimilarityIds},
    {"Cosine", &CosineSimilarity, &CosineSimilarityIds},
    {"Dice", &DiceSimilarity, &DiceSimilarityIds},
    {"Overlap", &OverlapCoefficient, &OverlapCoefficientIds},
};

std::vector<uint32_t> InternSortedUnique(const std::vector<std::string>& toks,
                                         TokenInterner* interner) {
  std::vector<uint32_t> ids;
  ids.reserve(toks.size());
  for (const std::string& t : toks) ids.push_back(interner->IdOf(t));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(KernelPropertyTokenSets, IdMergeMatchesStringSetsExactly) {
  Rng rng(53);
  TokenInterner interner;
  // Small token universe so overlaps are common; duplicates exercised
  // deliberately (the string measures de-dup via hash set, the ID path via
  // sort+unique — the resulting counts must match).
  const char* universe[] = {"new", "york", "city", "golden", "dragon",
                            "palace", "##a", "#ab", "ab#",
                            "caf\xC3\xA9", "", "12345"};
  const size_t kUniverse = sizeof(universe) / sizeof(universe[0]);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::string> a, b;
    size_t na = rng.UniformIndex(10);
    size_t nb = rng.UniformIndex(10);
    for (size_t i = 0; i < na; ++i) {
      a.push_back(universe[rng.UniformIndex(kUniverse)]);
    }
    for (size_t i = 0; i < nb; ++i) {
      b.push_back(universe[rng.UniformIndex(kUniverse)]);
    }
    std::vector<uint32_t> ida = InternSortedUnique(a, &interner);
    std::vector<uint32_t> idb = InternSortedUnique(b, &interner);
    for (const auto& k : kSetKernels) {
      double s = k.strings(a, b);
      double f = k.ids(ida, idb);
      // Bit-identical, including the empty-set conventions.
      EXPECT_TRUE(s == f || (std::isnan(s) && std::isnan(f)))
          << k.name << ": " << s << " vs " << f << " (|a|=" << na
          << " |b|=" << nb << ")";
    }
  }
}

TEST(KernelPropertyTokenSets, EmptySetConventionsMatch) {
  TokenInterner interner;
  std::vector<std::string> empty;
  std::vector<std::string> one = {"token"};
  std::vector<uint32_t> id_empty;
  std::vector<uint32_t> id_one = InternSortedUnique(one, &interner);
  for (const auto& k : kSetKernels) {
    EXPECT_DOUBLE_EQ(k.strings(empty, empty), k.ids(id_empty, id_empty))
        << k.name;
    EXPECT_DOUBLE_EQ(k.strings(empty, one), k.ids(id_empty, id_one))
        << k.name;
    EXPECT_DOUBLE_EQ(k.strings(one, empty), k.ids(id_one, id_empty))
        << k.name;
    EXPECT_DOUBLE_EQ(k.ids(id_one, id_one), 1.0) << k.name;
  }
}

TEST(KernelPropertyTokenSets, InternerGivesEqualIdsForEqualTokens) {
  TokenInterner interner;
  uint32_t a1 = interner.IdOf("alpha");
  uint32_t b = interner.IdOf("beta");
  uint32_t a2 = interner.IdOf(std::string("alpha"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(interner.size(), 2u);
  // NUL-containing and empty tokens are first-class.
  uint32_t nul = interner.IdOf(std::string_view("a\0b", 3));
  EXPECT_NE(nul, interner.IdOf("a"));
  EXPECT_EQ(nul, interner.IdOf(std::string_view("a\0b", 3)));
}

// ---- arena tokenizers vs allocating tokenizers ------------------------------

TEST(KernelPropertyTokenizers, ArenaQGramsMatchAllocating) {
  Rng rng(61);
  QGramScratch scratch;
  std::vector<std::string> inputs = HostileStrings();
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(RandomBytes(&rng, rng.UniformIndex(80)));
  }
  for (const std::string& s : inputs) {
    auto expected = QGramTokenize(s, 3);
    const auto& views = QGramTokenizeInto(s, 3, &scratch);
    ASSERT_EQ(views.size(), expected.size()) << "len=" << s.size();
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(std::string(views[i]), expected[i]);
    }
  }
}

TEST(KernelPropertyTokenizers, ArenaWhitespaceMatchesAllocating) {
  std::vector<std::string> inputs = {
      "", " ", "  \t \n ", "one", " one ", "new  york\tcity\n",
      std::string("a\0b c", 5), "  leading and trailing  "};
  std::vector<std::string_view> views;
  for (const std::string& s : inputs) {
    auto expected = WhitespaceTokenize(s);
    WhitespaceTokenizeInto(s, &views);
    ASSERT_EQ(views.size(), expected.size()) << "'" << s << "'";
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(std::string(views[i]), expected[i]);
    }
  }
}

// ---- flattened forest vs per-tree scalar walks ------------------------------

Matrix RandomMatrix(Rng* rng, size_t rows, size_t cols, double nan_frac) {
  Matrix X(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (nan_frac > 0.0 &&
          rng->UniformIndex(1000) < static_cast<size_t>(nan_frac * 1000)) {
        X.At(r, c) = std::numeric_limits<double>::quiet_NaN();
      } else {
        X.At(r, c) =
            static_cast<double>(rng->UniformIndex(2000)) / 100.0 - 10.0;
      }
    }
  }
  return X;
}

TEST(FlatForestDifferential, ClassifierTreesMatchScalarWalkBitForBit) {
  Rng rng(71);
  const size_t kRows = 200, kCols = 6;
  Matrix X = RandomMatrix(&rng, kRows, kCols, 0.1);
  std::vector<int> y(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    y[r] = (X.At(r, 0) + X.At(r, 1) > 0.0) ? 1 : 0;
  }

  std::vector<DecisionTreeClassifier> trees;
  FlatForest flat;
  for (int t = 0; t < 5; ++t) {
    TreeOptions opt;
    opt.seed = 100 + t;
    opt.max_features = 0.8;
    trees.emplace_back(opt);
    ASSERT_TRUE(trees.back().Fit(X, y).ok());
    flat.AppendTree(trees.back().nodes(),
                    [](const DecisionTreeClassifier::Node& n) {
                      return n.prob_positive;
                    });
  }
  ASSERT_EQ(flat.num_trees(), trees.size());

  // Eval rows include NaNs (kernel must keep the NaN-goes-left routing) and
  // sweep odd block sizes so the lockstep loop's tail lanes are covered.
  Matrix eval = RandomMatrix(&rng, 97, kCols, 0.15);
  std::vector<double> sums(eval.rows(), 0.0);
  flat.AccumulateRows(eval, 0, eval.rows(), sums.data());
  for (size_t r = 0; r < eval.rows(); ++r) {
    double expected = 0.0;
    for (const auto& tree : trees) {
      expected += tree.PredictRowProba(eval.RowPtr(r));
    }
    EXPECT_EQ(sums[r], expected) << "row " << r;  // bit-identical
  }

  // Sub-range accumulation (the chunked ParallelFor shape) must agree too.
  std::vector<double> chunk(7, 0.0);
  flat.AccumulateRows(eval, 13, 20, chunk.data());
  for (size_t r = 13; r < 20; ++r) {
    EXPECT_EQ(chunk[r - 13], sums[r]);
  }
}

TEST(FlatForestDifferential, RegressionTreesMatchScalarWalkBitForBit) {
  Rng rng(73);
  const size_t kRows = 150, kCols = 4;
  Matrix X = RandomMatrix(&rng, kRows, kCols, 0.0);
  std::vector<double> y(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    y[r] = X.At(r, 0) * 0.5 - X.At(r, 2);
  }

  std::vector<RegressionTree> trees;
  FlatForest flat;
  for (int t = 0; t < 4; ++t) {
    TreeOptions opt;
    opt.seed = 200 + t;
    opt.min_samples_leaf = 2;
    trees.emplace_back(opt);
    ASSERT_TRUE(trees.back().Fit(X, y).ok());
    flat.AppendTree(trees.back().nodes(),
                    [](const RegressionTree::Node& n) { return n.value; });
  }

  Matrix eval = RandomMatrix(&rng, 60, kCols, 0.1);
  std::vector<double> per_tree(trees.size(), 0.0);
  for (size_t r = 0; r < eval.rows(); ++r) {
    flat.PredictRowPerTree(eval.RowPtr(r), per_tree.data());
    for (size_t t = 0; t < trees.size(); ++t) {
      EXPECT_EQ(per_tree[t], trees[t].PredictRow(eval.RowPtr(r)))
          << "row " << r << " tree " << t;
    }
  }
}

TEST(FlatForestDifferential, SingleLeafTreeWorks) {
  // A tree that never splits (all labels equal) flattens to one node.
  Matrix X(10, 2, 1.0);
  std::vector<int> y(10, 1);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(X, y).ok());
  FlatForest flat;
  flat.AppendTree(tree.nodes(), [](const DecisionTreeClassifier::Node& n) {
    return n.prob_positive;
  });
  std::vector<double> sums(X.rows(), 0.0);
  flat.AccumulateRows(X, 0, X.rows(), sums.data());
  for (size_t r = 0; r < X.rows(); ++r) {
    EXPECT_EQ(sums[r], tree.PredictRowProba(X.RowPtr(r)));
  }
}

TEST(FlatForestDifferential, ForestPredictionsThreadCountInvariant) {
  Rng rng(79);
  const size_t kRows = 120, kCols = 5;
  Matrix X = RandomMatrix(&rng, kRows, kCols, 0.05);
  std::vector<int> y(kRows);
  for (size_t r = 0; r < kRows; ++r) y[r] = (X.At(r, 1) > 0.0) ? 1 : 0;

  auto fit_predict = [&](int threads) {
    RandomForestOptions opt;
    opt.n_estimators = 15;
    opt.seed = 99;
    opt.parallelism = Parallelism::Threads(threads);
    RandomForestClassifier rf(opt);
    EXPECT_TRUE(rf.Fit(X, y).ok());
    return rf.PredictProba(X);
  };
  auto p1 = fit_predict(1);
  auto p2 = fit_predict(2);
  auto p8 = fit_predict(8);
  for (size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(p1[r], p2[r]) << "row " << r;
    EXPECT_EQ(p1[r], p8[r]) << "row " << r;
  }
}

}  // namespace
}  // namespace autoem
