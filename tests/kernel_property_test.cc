// Differential and property tests for the fast similarity kernels, the
// rank-based tree builder, derived split ranks and the flattened forest
// traversal (DESIGN.md §13). The scalar reference kernels under
// `autoem::reference`, the sorting tree builder, ranks sorted from the
// selected rows and the per-tree node walks are the oracles; every fast
// path must agree *exactly* — bit-identical doubles, equal integers — on
// random and hostile inputs. These tests are what license future rewrites
// of the fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "io/serialize.h"
#include "ml/models/decision_tree.h"
#include "ml/models/flat_forest.h"
#include "ml/models/random_forest.h"
#include "preprocess/balancing.h"
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

// Bit-identical doubles, not merely equal ones. The one-pass alignment
// kernel's two scores are checked against the same references as the
// kernels that compute one score each.
void ExpectAllMatchReference(const std::string& a, const std::string& b) {
  for (const auto& k : kReferencedKernels) {
    EXPECT_EQ(std::bit_cast<uint64_t>(k.fast(a, b)),
              std::bit_cast<uint64_t>(k.reference(a, b)))
        << k.name << ": " << k.fast(a, b) << " vs " << k.reference(a, b)
        << " (len a=" << a.size() << " len b=" << b.size() << ")";
  }
  const AlignmentScores both = NeedlemanWunschAndSmithWaterman(a, b);
  const double nw = reference::NeedlemanWunsch(a, b);
  const double sw = reference::SmithWaterman(a, b);
  EXPECT_EQ(std::bit_cast<uint64_t>(both.needleman_wunsch),
            std::bit_cast<uint64_t>(nw))
      << "one-pass NeedlemanWunsch: " << both.needleman_wunsch << " vs " << nw
      << " (len a=" << a.size() << " len b=" << b.size() << ")";
  EXPECT_EQ(std::bit_cast<uint64_t>(both.smith_waterman),
            std::bit_cast<uint64_t>(sw))
      << "one-pass SmithWaterman: " << both.smith_waterman << " vs " << sw
      << " (len a=" << a.size() << " len b=" << b.size() << ")";
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
  // Every length from 0 to 17 on either side, so each length below, at
  // and past the cutoffs where the alignment kernels leave the scalar
  // reference (3 bytes for the one-pass kernel, two lane steps for one
  // score) meets every other; the 64-bit word edges of the bitset Jaro;
  // and lengths many words and many lane steps long.
  Rng rng(97);
  const size_t lens[] = {0,   1,   2,   3,   4,   5,   6,   7,   8,
                         9,   10,  11,  12,  13,  14,  15,  16,  17,
                         31,  62,  63,  64,  65,  66,  126, 127, 128,
                         129, 130, 192, 200, 300, 513};
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
  // At the limit NW and SW, alone or in one pass, still run in int16
  // lanes, with border cells at -limit; one byte past it they hand over to
  // the reference.
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

// ---- Monge-Elkan on interned tokens vs the reference ------------------------

// MongeElkanTokenIds's operand for `s`, built as TableTokenCache builds a
// cell: whitespace tokens interned once each, sorted unique IDs, and each
// token's index into them.
struct InternedString {
  std::vector<uint32_t> ids;
  std::vector<std::string_view> texts;
  std::vector<uint32_t> order;

  InternedTokens view() const { return {ids, texts, order}; }
};

InternedString InternWords(std::string_view s, TokenInterner* interner) {
  std::vector<std::string_view> words;
  WhitespaceTokenizeInto(s, &words);
  InternedString out;
  for (std::string_view w : words) out.ids.push_back(interner->IdOf(w));
  std::vector<uint32_t> word_ids = out.ids;
  std::sort(out.ids.begin(), out.ids.end());
  out.ids.erase(std::unique(out.ids.begin(), out.ids.end()), out.ids.end());
  out.texts.resize(out.ids.size());
  for (size_t i = 0; i < words.size(); ++i) {
    const auto k = static_cast<uint32_t>(
        std::lower_bound(out.ids.begin(), out.ids.end(), word_ids[i]) -
        out.ids.begin());
    out.order.push_back(k);
    out.texts[k] = words[i];
  }
  return out;
}

TEST(KernelPropertyStrings, TokenIdMongeElkanMatchesReference) {
  Rng rng(71);
  std::vector<std::string> inputs = HostileStrings();
  inputs.push_back("new york city");
  inputs.push_back("york new york");
  inputs.push_back(" york  york\tnew ");
  for (int i = 0; i < 40; ++i) {
    // Few distinct bytes: tokens repeat within and across strings.
    inputs.push_back(RandomText(&rng, rng.UniformIndex(60), "abc  \t"));
    inputs.push_back(RandomHostileBytes(&rng, rng.UniformIndex(40)));
  }
  auto memo = std::make_unique<JaroWinklerMemo>();
  // Two passes under one generation (the second one served by the memo),
  // then a fresh interner under a new generation that interns the strings
  // in reverse, so its ID values name other tokens.
  for (int pass = 0; pass < 2; ++pass) {
    TokenInterner interner;
    const uint64_t generation = JaroWinklerMemo::NewGeneration();
    std::vector<InternedString> interned(inputs.size());
    for (size_t n = 0; n < inputs.size(); ++n) {
      const size_t i = pass == 0 ? n : inputs.size() - 1 - n;
      interned[i] = InternWords(inputs[i], &interner);
    }
    for (int repeat = 0; repeat < (pass == 0 ? 2 : 1); ++repeat) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        for (size_t j = 0; j < inputs.size(); ++j) {
          const double got = MongeElkanTokenIds(
              interned[i].view(), interned[j].view(), generation, memo.get());
          const double want = reference::MongeElkan(inputs[i], inputs[j]);
          ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
              << "pass " << pass << " inputs " << i << ", " << j;
        }
      }
    }
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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

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

  // The one-pass committee walk: the same sums, plus the number of trees
  // whose leaf is >= 0.5, counted the way the per-tree walk counts them.
  std::vector<double> vote_sums(eval.rows(), 0.0);
  std::vector<uint32_t> votes(eval.rows(), 0);
  flat.AccumulateRows(eval, 0, eval.rows(), vote_sums.data(), votes.data());
  for (size_t r = 0; r < eval.rows(); ++r) {
    uint32_t expected = 0;
    for (const auto& tree : trees) {
      if (tree.PredictRowProba(eval.RowPtr(r)) >= 0.5) ++expected;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(vote_sums[r]),
              std::bit_cast<uint64_t>(sums[r]))
        << "row " << r;
    EXPECT_EQ(votes[r], expected) << "row " << r;
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

// PredictProbaAndConfidence against the per-tree walk VoteConfidence used
// to do, and against PredictProba, bit for bit.
TEST(FlatForestDifferential, CommitteeWalkMatchesPerTreeVotes) {
  Rng rng(83);
  const size_t kRows = 160, kCols = 5;
  Matrix X = RandomMatrix(&rng, kRows, kCols, 0.1);
  std::vector<int> y(kRows);
  for (size_t r = 0; r < kRows; ++r) y[r] = (X.At(r, 2) > 1.0) ? 1 : 0;
  RandomForestOptions opt;
  opt.n_estimators = 9;
  opt.seed = 5;
  RandomForestClassifier rf(opt);
  ASSERT_TRUE(rf.Fit(X, y).ok());

  // The same trees, walked one row at a time through their node arrays.
  std::vector<DecisionTreeClassifier> trees(rf.NumTrees());
  {
    io::Writer w;
    ASSERT_TRUE(rf.SaveFitted(&w).ok());
    io::Reader r(w.data());
    uint64_t count = 0;
    ASSERT_TRUE(r.U64(&count).ok());
    ASSERT_EQ(count, trees.size());
    for (auto& tree : trees) ASSERT_TRUE(tree.LoadFitted(&r).ok());
  }

  Matrix eval = RandomMatrix(&rng, 203, kCols, 0.15);
  auto [proba, confidence] = rf.PredictProbaAndConfidence(eval);
  std::vector<double> plain = rf.PredictProba(eval);
  std::vector<double> conf = rf.VoteConfidence(eval);
  ASSERT_EQ(proba.size(), eval.rows());
  for (size_t r = 0; r < eval.rows(); ++r) {
    double votes_pos = 0.0;
    for (const auto& tree : trees) {
      if (tree.PredictRowProba(eval.RowPtr(r)) >= 0.5) votes_pos += 1.0;
    }
    double frac_pos = votes_pos / static_cast<double>(trees.size());
    double expected = std::max(frac_pos, 1.0 - frac_pos);
    EXPECT_EQ(std::bit_cast<uint64_t>(confidence[r]),
              std::bit_cast<uint64_t>(expected))
        << "row " << r;
    EXPECT_EQ(std::bit_cast<uint64_t>(conf[r]),
              std::bit_cast<uint64_t>(expected))
        << "row " << r;
    EXPECT_EQ(std::bit_cast<uint64_t>(proba[r]),
              std::bit_cast<uint64_t>(plain[r]))
        << "row " << r;
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

// Hand-built forests stress what fitted ones rarely show: a 300-split chain
// whose rows stop at every depth, next to single-leaf trees that take no
// step, cells equal to thresholds, and the values the comparison must route
// like the scalar walk (NaN, both zeros, both infinities, denormals).

using ClassifierNode = DecisionTreeClassifier::Node;

ClassifierNode LeafNode(double prob) {
  ClassifierNode n;
  n.prob_positive = prob;
  return n;
}

// `depth` splits in a chain: split i tests column i % cols against
// threshold i, its left child is a leaf and its right child the next split;
// the last split's right child is the deepest leaf. A row stops at the
// first split whose cell is <= its threshold (NaN included), so constant
// rows of value k stop at depth k + 1 and +inf rows reach the bottom.
// Every leaf's payload differs from its neighbours' and from the splits'
// (0), so a row that stops one node early or late changes its sum.
std::vector<ClassifierNode> ChainTree(size_t depth, size_t cols) {
  std::vector<ClassifierNode> nodes;
  for (size_t i = 0; i < depth; ++i) {
    ClassifierNode split;
    split.feature = static_cast<int>(i % cols);
    split.threshold = static_cast<double>(i);
    split.left = static_cast<int>(nodes.size()) + 1;
    split.right = static_cast<int>(nodes.size()) + 2;
    nodes.push_back(split);
    nodes.push_back(LeafNode(static_cast<double>((i * 37) % 101 + 1) / 128.0));
  }
  nodes.push_back(LeafNode(0.875));
  return nodes;
}

// One split on column `feature` at `threshold`.
std::vector<ClassifierNode> StumpTree(int feature, double threshold) {
  ClassifierNode root;
  root.feature = feature;
  root.threshold = threshold;
  root.left = 1;
  root.right = 2;
  return {root, LeafNode(0.125), LeafNode(0.625)};
}

// `trees` in RandomForestClassifier::SaveFitted's encoding.
std::string ForestBytes(
    const std::vector<std::vector<ClassifierNode>>& trees) {
  io::Writer w;
  w.U64(trees.size());
  for (const auto& tree : trees) {
    w.U64(tree.size());
    for (const ClassifierNode& n : tree) {
      w.I32(n.feature);
      w.F64(n.threshold);
      w.I32(n.left);
      w.I32(n.right);
      w.F64(n.prob_positive);
    }
  }
  return w.data();
}

// The trees of ForestBytes output, loaded one by one: the scalar oracle.
std::vector<DecisionTreeClassifier> LoadTrees(const std::string& bytes) {
  io::Reader r(bytes);
  uint64_t count = 0;
  EXPECT_TRUE(r.U64(&count).ok());
  std::vector<DecisionTreeClassifier> trees(static_cast<size_t>(count));
  for (auto& tree : trees) EXPECT_TRUE(tree.LoadFitted(&r).ok());
  return trees;
}

FlatForest Flatten(const std::vector<DecisionTreeClassifier>& trees) {
  FlatForest flat;
  for (const auto& tree : trees) {
    flat.AppendTree(tree.nodes(), [](const ClassifierNode& n) {
      return n.prob_positive;
    });
  }
  return flat;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

// Cells the walks must route alike: every chain threshold's neighbourhood,
// both zeros, both infinities, denormals and NaN.
const double kHostileCells[] = {
    std::numeric_limits<double>::quiet_NaN(),
    -0.0, 0.0, -kInf, kInf, kDenorm, -kDenorm, 1.0, 2.0, 3.0, 5.5, 150.0,
    298.0, 299.0, 300.0, 1e300};

// Rows of three kinds: constant rows (each of a depth list, so the chain's
// rows stop at depths 1..301 in one block), rows of hostile cells, and rows
// whose cells are chain thresholds.
Matrix HostileRows(Rng* rng, size_t rows, size_t cols) {
  const double constants[] = {kInf, 299.0, 300.0, 150.0, 0.0, -0.0,
                              kDenorm, 7.0, 64.0, 255.0, 1e300, -kInf};
  Matrix X(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      switch (r % 3) {
        case 0:
          X.At(r, c) = constants[(r / 3) % std::size(constants)];
          break;
        case 1:
          X.At(r, c) =
              kHostileCells[rng->UniformIndex(std::size(kHostileCells))];
          break;
        default:
          X.At(r, c) = static_cast<double>(rng->UniformIndex(302));
          break;
      }
    }
  }
  return X;
}

TEST(FlatForestDifferential, HandBuiltForestMatchesScalarWalkBitForBit) {
  const size_t kCols = 4;
  const std::vector<std::vector<ClassifierNode>> forest = {
      {LeafNode(0.6)},
      ChainTree(300, kCols),
      {LeafNode(0.25)},
      StumpTree(static_cast<int>(kCols) - 1, 0.0),  // the last column, at 0
      ChainTree(301, kCols),
      {LeafNode(0.5)},
  };
  const std::vector<DecisionTreeClassifier> trees =
      LoadTrees(ForestBytes(forest));
  ASSERT_EQ(trees.size(), forest.size());
  ASSERT_EQ(trees[1].Depth(), 300u);
  const FlatForest flat = Flatten(trees);

  Rng rng(97);
  Matrix eval = HostileRows(&rng, 120, kCols);
  std::vector<double> want(eval.rows(), 0.0);
  std::vector<uint32_t> want_votes(eval.rows(), 0);
  for (size_t r = 0; r < eval.rows(); ++r) {
    for (const auto& tree : trees) {
      const double p = tree.PredictRowProba(eval.RowPtr(r));
      want[r] += p;
      want_votes[r] += p >= 0.5;
    }
  }

  // Block tails and offsets: ranges of 1, 15, 16, 17 and 33 rows.
  for (size_t n : {1, 15, 16, 17, 33}) {
    for (size_t begin : {size_t{0}, size_t{5}, eval.rows() - n}) {
      std::vector<double> sums(n, -1.0);
      std::vector<double> vote_sums(n, -1.0);
      std::vector<uint32_t> votes(n, 99);
      flat.AccumulateRows(eval, begin, begin + n, sums.data());
      flat.AccumulateRows(eval, begin, begin + n, vote_sums.data(),
                          votes.data());
      for (size_t i = 0; i < n; ++i) {
        const size_t r = begin + i;
        EXPECT_EQ(Bits(sums[i]), Bits(want[r]))
            << n << " rows from " << begin << ", row " << r;
        EXPECT_EQ(Bits(vote_sums[i]), Bits(want[r])) << "row " << r;
        EXPECT_EQ(votes[i], want_votes[r]) << "row " << r;
      }
    }
  }

  // The single-row walk the surrogate uses, tree by tree.
  std::vector<double> per_tree(trees.size(), -1.0);
  for (size_t r = 0; r < eval.rows(); ++r) {
    flat.PredictRowPerTree(eval.RowPtr(r), per_tree.data());
    for (size_t t = 0; t < trees.size(); ++t) {
      EXPECT_EQ(Bits(per_tree[t]),
                Bits(trees[t].PredictRowProba(eval.RowPtr(r))))
          << "row " << r << " tree " << t;
    }
  }
}

// The same forest loaded from saved bytes: PredictProba and the committee
// walk against the per-tree walk, at 1, 2 and 8 threads.
TEST(FlatForestDifferential, LoadedForestMatchesScalarWalkBitForBit) {
  const size_t kCols = 3;
  const std::vector<std::vector<ClassifierNode>> forest = {
      ChainTree(320, kCols), {LeafNode(0.75)}, StumpTree(2, 150.0),
      {LeafNode(0.0)}, ChainTree(17, kCols)};
  const std::string bytes = ForestBytes(forest);
  const std::vector<DecisionTreeClassifier> trees = LoadTrees(bytes);
  ASSERT_EQ(trees.size(), forest.size());

  Rng rng(101);
  Matrix eval = HostileRows(&rng, 300, kCols);
  for (int threads : {1, 2, 8}) {
    RandomForestOptions opt;
    opt.parallelism = Parallelism::Threads(threads);
    RandomForestClassifier rf(opt);
    io::Reader r(bytes);
    ASSERT_TRUE(rf.LoadFitted(&r).ok());
    ASSERT_EQ(rf.NumTrees(), forest.size());
    const std::vector<double> proba = rf.PredictProba(eval);
    const auto committee = rf.PredictProbaAndConfidence(eval);
    for (size_t row = 0; row < eval.rows(); ++row) {
      double sum = 0.0;
      double pos = 0.0;
      for (const auto& tree : trees) {
        const double p = tree.PredictRowProba(eval.RowPtr(row));
        sum += p;
        pos += p >= 0.5 ? 1.0 : 0.0;
      }
      const double n = static_cast<double>(trees.size());
      const double frac = pos / n;
      EXPECT_EQ(Bits(proba[row]), Bits(sum / n)) << "row " << row;
      EXPECT_EQ(Bits(committee.proba[row]), Bits(sum / n)) << "row " << row;
      EXPECT_EQ(Bits(committee.confidence[row]),
                Bits(std::max(frac, 1.0 - frac)))
          << "row " << row;
    }
  }
}

// PredictRowPerTree over fitted regression trees (the SMAC surrogate's
// walk), on training cells drawn from the hostile values and on rows whose
// cells equal the fitted thresholds.
TEST(FlatForestDifferential, RegressionPerTreeWalkOnHostileCells) {
  Rng rng(103);
  const size_t kRows = 90, kCols = 3;
  Matrix X(kRows, kCols);
  std::vector<double> y(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      X.At(r, c) = kHostileCells[rng.UniformIndex(std::size(kHostileCells))];
    }
    y[r] = static_cast<double>(rng.UniformIndex(1000)) / 10.0;
  }
  std::vector<RegressionTree> trees;
  FlatForest flat;
  for (int t = 0; t < 6; ++t) {
    TreeOptions opt;
    opt.seed = 300 + t;
    opt.max_features = 0.7;
    trees.emplace_back(opt);
    ASSERT_TRUE(trees.back().Fit(X, y).ok());
    flat.AppendTree(trees.back().nodes(),
                    [](const RegressionTree::Node& n) { return n.value; });
  }
  // Rows whose cells sit exactly on the fitted thresholds, besides X.
  std::vector<double> thresholds;
  for (const auto& tree : trees) {
    for (const auto& n : tree.nodes()) {
      if (n.feature >= 0) thresholds.push_back(n.threshold);
    }
  }
  ASSERT_FALSE(thresholds.empty());
  Matrix on(thresholds.size(), kCols);
  for (size_t r = 0; r < on.rows(); ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      on.At(r, c) = thresholds[(r + c) % thresholds.size()];
    }
  }
  std::vector<double> per_tree(trees.size(), -1.0);
  for (const Matrix* eval : {&X, &on}) {
    for (size_t r = 0; r < eval->rows(); ++r) {
      flat.PredictRowPerTree(eval->RowPtr(r), per_tree.data());
      for (size_t t = 0; t < trees.size(); ++t) {
        EXPECT_EQ(Bits(per_tree[t]),
                  Bits(trees[t].PredictRow(eval->RowPtr(r))))
            << "row " << r << " tree " << t;
      }
    }
  }
}

// The relayout keeps siblings side by side and makes every leaf absorb.
TEST(FlatForestDifferential, NodesAreSixteenBytesWithAbsorbingLeaves) {
  static_assert(sizeof(FlatForest::Node) == 16);
  const FlatForest flat =
      Flatten(LoadTrees(ForestBytes({ChainTree(5, 2), StumpTree(1, 0.0)})));
  size_t leaves = 0;
  for (size_t k = 0; k < flat.nodes().size(); ++k) {
    const FlatForest::Node& n = flat.nodes()[k];
    if (n.left == k) {
      ++leaves;
      EXPECT_EQ(n.threshold, kInf) << "node " << k;
      EXPECT_EQ(n.feature, 0) << "node " << k;
    } else {
      EXPECT_GT(n.left, k) << "node " << k;
      EXPECT_LT(n.left + 1, flat.nodes().size()) << "node " << k;
    }
  }
  EXPECT_EQ(leaves, 6u + 2u);
}

// ---- rank-based tree builder vs the sorting reference ----------------------

using TreeNode = DecisionTreeClassifier::Node;

// Byte for byte: feature, threshold bits, children, leaf probability bits.
void ExpectSameNodes(const std::vector<TreeNode>& fast,
                     const std::vector<TreeNode>& ref,
                     const std::string& what) {
  ASSERT_EQ(fast.size(), ref.size()) << what;
  for (size_t k = 0; k < fast.size(); ++k) {
    EXPECT_EQ(fast[k].feature, ref[k].feature) << what << " node " << k;
    EXPECT_EQ(Bits(fast[k].threshold), Bits(ref[k].threshold))
        << what << " node " << k << ": " << fast[k].threshold << " vs "
        << ref[k].threshold;
    EXPECT_EQ(fast[k].left, ref[k].left) << what << " node " << k;
    EXPECT_EQ(fast[k].right, ref[k].right) << what << " node " << k;
    EXPECT_EQ(Bits(fast[k].prob_positive), Bits(ref[k].prob_positive))
        << what << " node " << k;
  }
}

// Fits one tree with both builders, the fast one on ranks shared across
// calls as a forest shares them, and compares status and nodes.
void ExpectTreeFitsMatch(const TreeOptions& opt, const Matrix& X,
                         const FeatureRanks& ranks, const std::vector<int>& y,
                         const std::vector<double>* w,
                         const std::string& what) {
  DecisionTreeClassifier tree(opt);
  Status st = tree.Fit(X, ranks, y, w);
  auto ref = reference::FitClassifierTree(opt, X, y, w);
  ASSERT_EQ(st.code(), ref.status().code()) << what << ": " << st.ToString();
  if (st.ok()) ExpectSameNodes(tree.nodes(), *ref, what);
}

// Values the split search must treat carefully: NaN (ranks as -inf), both
// zeros (one rank), both infinities, denormals, and magnitudes whose
// midpoint overflows.
const double kSpecialValues[] = {
    std::numeric_limits<double>::quiet_NaN(),
    -0.0,
    0.0,
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    2 * std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::max(),
    -std::numeric_limits<double>::max(),
};

// Columns cycle through the tie regimes: a 3-10 value alphabet mixing
// special values with small reals, a mid-sized alphabet, and continuous
// values. Labels follow the first columns' alphabet positions with noise,
// so trees grow deep and node sizes sweep from n down to one row: each
// feature's scan switches from counting buckets to sorting keys as m
// falls below D/64.
struct TieData {
  Matrix X;
  std::vector<int> y;
};

TieData MakeTieData(Rng* rng, size_t rows, size_t cols) {
  TieData d{Matrix(rows, cols), std::vector<int>(rows, 0)};
  std::vector<size_t> signal(rows, 0);
  for (size_t c = 0; c < cols; ++c) {
    std::vector<double> alphabet;
    if (c % 4 == 3) {
      for (size_t r = 0; r < rows; ++r) {
        d.X.At(r, c) = static_cast<double>(rng->UniformIndex(1 << 20)) / 64.0;
      }
      continue;
    }
    const size_t size = c % 4 == 2 ? rows / 6 : 3 + rng->UniformIndex(8);
    for (size_t k = 0; k < size; ++k) {
      alphabet.push_back(
          rng->UniformIndex(2) == 0
              ? kSpecialValues[rng->UniformIndex(std::size(kSpecialValues))]
              : static_cast<double>(rng->UniformIndex(9)) - 4.0);
    }
    for (size_t r = 0; r < rows; ++r) {
      const size_t k = rng->UniformIndex(size);
      d.X.At(r, c) = alphabet[k];
      if (c < 2) signal[r] += k;
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    d.y[r] = static_cast<int>((signal[r] + (rng->UniformIndex(6) == 0)) % 2);
  }
  return d;
}

// The weight regimes a tree sees: none, integer bootstrap counts,
// BalancedClassWeights fractions, their product (a class-weighted forest),
// zero-heavy fractions, and whole numbers too large to sum exactly.
std::vector<std::pair<std::string, std::vector<double>>> WeightVariants(
    Rng* rng, const std::vector<int>& y) {
  const size_t n = y.size();
  std::vector<std::pair<std::string, std::vector<double>>> out;
  std::vector<double> boot(n, 0.0);
  for (size_t k = 0; k < n; ++k) boot[rng->UniformIndex(n)] += 1.0;
  out.emplace_back("bootstrap", boot);
  auto balanced = BalancedClassWeights(y);
  if (balanced.ok()) {
    out.emplace_back("balanced", *balanced);
    std::vector<double> product = boot;
    for (size_t k = 0; k < n; ++k) product[k] *= (*balanced)[k];
    out.emplace_back("bootstrap_x_balanced", product);
  }
  std::vector<double> ragged(n);
  for (double& v : ragged) {
    v = rng->UniformIndex(3) == 0 ? 0.0 : rng->Uniform() * 3.0;
  }
  out.emplace_back("zero_heavy_fractions", ragged);
  std::vector<double> huge(n);
  for (double& v : huge) {
    v = static_cast<double>(rng->UniformIndex(3)) * 4503599627370496.0 + 1.0;
  }
  out.emplace_back("huge_whole", huge);
  return out;
}

TEST(TreeFitDifferential, HeavyTiesAndSpecialValuesAcrossOptionGrid) {
  Rng rng(2024);
  for (int round = 0; round < 3; ++round) {
    TieData d = MakeTieData(&rng, 200 + 40 * round, 12);
    FeatureRanks ranks(d.X);
    auto variants = WeightVariants(&rng, d.y);
    variants.emplace_back("unweighted", std::vector<double>());
    const double sqrt_features = std::sqrt(12.0) / 12.0;
    for (const auto& [wname, weights] : variants) {
      const std::vector<double>* w = weights.empty() ? nullptr : &weights;
      for (const char* criterion : {"gini", "entropy"}) {
        for (double max_features : {0.05, sqrt_features, 1.0}) {
          for (int min_leaf : {1, 5}) {
            TreeOptions opt;
            opt.criterion = criterion;
            opt.max_features = max_features;
            opt.min_samples_leaf = min_leaf;
            opt.seed = 31 + static_cast<uint64_t>(round);
            ExpectTreeFitsMatch(
                opt, d.X, ranks, d.y, w,
                "round " + std::to_string(round) + " " + wname + " " +
                    criterion + " mf=" + std::to_string(max_features) +
                    " leaf=" + std::to_string(min_leaf));
          }
        }
      }
    }
  }
}

TEST(TreeFitDifferential, ContinuousFeaturesCrossEveryRegime) {
  // Mostly distinct values: nodes down to n/64 rows count buckets
  // (D <= 64m) and smaller ones, here at most 6 rows, sort keys.
  Rng rng(77);
  Matrix X = RandomMatrix(&rng, 400, 6, 0.05);
  std::vector<int> y(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) {
    y[r] = (X.At(r, 0) * X.At(r, 1) > 3.0) != (rng.UniformIndex(8) == 0);
  }
  FeatureRanks ranks(X);
  auto variants = WeightVariants(&rng, y);
  variants.emplace_back("unweighted", std::vector<double>());
  for (const auto& [wname, weights] : variants) {
    for (double max_features : {0.34, 1.0}) {
      TreeOptions opt;
      opt.max_features = max_features;
      opt.seed = 5;
      ExpectTreeFitsMatch(opt, X, ranks, y,
                          weights.empty() ? nullptr : &weights,
                          wname + " mf=" + std::to_string(max_features));
    }
  }
}

TEST(TreeFitDifferential, TallTableSortsTiesPastInsertionSort) {
  // Half of each column's cells come from {-0, +0, 1, NaN}, half from 2^20
  // values, so D is about 2,000 and nodes of up to D/64, about 31 rows,
  // sort keys. A sort of more than 16 keys partitions before its final
  // insertion sort, which moves tied ranks out of row order: only the row
  // half of each (rank << 32 | row) key puts ties back in the row order
  // the reference sums them in.
  Rng rng(2048);
  Matrix X(4000, 6);
  std::vector<int> y(X.rows());
  const double kFew[] = {-0.0, 0.0, 1.0,
                         std::numeric_limits<double>::quiet_NaN()};
  for (size_t r = 0; r < X.rows(); ++r) {
    for (size_t c = 0; c < X.cols(); ++c) {
      X.At(r, c) =
          rng.UniformIndex(2) == 0
              ? kFew[rng.UniformIndex(4)]
              : static_cast<double>(rng.UniformIndex(1 << 20)) / 64.0;
    }
    y[r] = (X.At(r, 0) > X.At(r, 1)) != (rng.UniformIndex(4) == 0);
  }
  FeatureRanks ranks(X);
  auto variants = WeightVariants(&rng, y);
  variants.emplace_back("unweighted", std::vector<double>());
  for (const auto& [wname, weights] : variants) {
    TreeOptions opt;
    opt.seed = 3;
    ExpectTreeFitsMatch(opt, X, ranks, y, weights.empty() ? nullptr : &weights,
                        wname);
  }
}

TEST(TreeFitDifferential, StoppingRulesMatch) {
  Rng rng(4242);
  TieData d = MakeTieData(&rng, 260, 8);
  FeatureRanks ranks(d.X);
  auto variants = WeightVariants(&rng, d.y);
  for (const auto& [wname, weights] : variants) {
    for (int min_split : {2, 7, 40}) {
      for (double min_decrease : {0.0, 1e-3, 0.02}) {
        for (int max_depth : {0, 1, 4}) {
          TreeOptions opt;
          opt.min_samples_split = min_split;
          opt.min_impurity_decrease = min_decrease;
          opt.max_depth = max_depth;
          opt.max_features = 0.5;
          ExpectTreeFitsMatch(opt, d.X, ranks, d.y, &weights,
                              wname + " split=" + std::to_string(min_split) +
                                  " dec=" + std::to_string(min_decrease) +
                                  " depth=" + std::to_string(max_depth));
        }
      }
    }
  }
}

TEST(TreeFitDifferential, SignedZeroBelowInfinityKeepsTheReferenceSign) {
  // One feature: ±0 rows labelled 0 and +inf rows labelled 1. The root cut
  // sits between the zeros and +inf, where (0 + inf) / 2 overflows, so the
  // threshold is a zero: the group's last in (value, row) order, which is
  // the highest-index zero row. Both tree types, with and without
  // fractional weights.
  Rng rng(9);
  int negative = 0, positive = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 12 + rng.UniformIndex(50);
    Matrix X(n, 1);
    std::vector<int> y(n);
    std::vector<double> target(n);
    bool last_zero_negative = false;
    for (size_t r = 0; r < n; ++r) {
      const bool inf = r == 0 || (r != 1 && rng.UniformIndex(3) == 0);
      X.At(r, 0) = inf ? std::numeric_limits<double>::infinity()
                       : (rng.UniformIndex(2) == 0 ? -0.0 : 0.0);
      if (!inf) last_zero_negative = std::signbit(X.At(r, 0));
      y[r] = inf ? 1 : 0;
      target[r] = y[r];
    }
    FeatureRanks ranks(X);
    std::vector<double> fractional(n);
    for (double& v : fractional) v = 0.5 + rng.Uniform();
    const std::vector<double>* const weightings[] = {nullptr, &fractional};
    for (const std::vector<double>* w : weightings) {
      const std::string what = "trial " + std::to_string(trial) +
                               (w != nullptr ? " fractional" : "");
      TreeOptions opt;
      ExpectTreeFitsMatch(opt, X, ranks, y, w, what);
      auto ref = reference::FitClassifierTree(opt, X, y, w);
      ASSERT_TRUE(ref.ok());
      ASSERT_EQ((*ref)[0].feature, 0);
      EXPECT_EQ(std::signbit((*ref)[0].threshold), last_zero_negative)
          << what;
      RegressionTree regression(opt);
      ASSERT_TRUE(regression.Fit(X, target, w).ok());
      ASSERT_EQ(regression.nodes()[0].feature, 0);
      EXPECT_EQ(std::signbit(regression.nodes()[0].threshold),
                last_zero_negative)
          << what;
      ++(last_zero_negative ? negative : positive);
    }
  }
  // Both signs occur, so the comparisons above have teeth.
  EXPECT_GT(negative, 0);
  EXPECT_GT(positive, 0);
}

TEST(TreeFitDifferential, RandomThresholdsMatch) {
  Rng rng(15);
  TieData d = MakeTieData(&rng, 180, 6);
  FeatureRanks ranks(d.X);
  for (const auto& [wname, weights] : WeightVariants(&rng, d.y)) {
    TreeOptions opt;
    opt.random_thresholds = true;
    opt.max_features = 0.5;
    ExpectTreeFitsMatch(opt, d.X, ranks, d.y, &weights, wname);
  }
}

TEST(TreeFitDifferential, RejectedInputsAgree) {
  Matrix X(6, 2, 1.0);
  for (size_t r = 0; r < 6; ++r) X.At(r, 0) = static_cast<double>(r);
  std::vector<int> y = {0, 1, 0, 1, 0, 1};
  FeatureRanks ranks(X);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> cases[] = {
      std::vector<double>(6, 0.0),                       // all zero
      {1.0, 1.0, inf, 1.0, 1.0, 1.0},                    // infinite
      {1.0, std::nan(""), 1.0, 1.0, 1.0, 1.0},           // NaN
      {1.0, 1.0, 1.0},                                   // short
      {-1.0, -2.0, 0.0, -0.0, -3.0, -1.0},               // none positive
  };
  for (const auto& w : cases) {
    DecisionTreeClassifier tree;
    Status st = tree.Fit(X, ranks, y, &w);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_EQ(reference::FitClassifierTree({}, X, y, &w).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ---- ranks of a row subset, derived from a superset's ----------------------

// Byte for byte: every feature's distinct count and ranks.
void ExpectSameRanks(const FeatureRanks& got, const FeatureRanks& want,
                     const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t f = 0; f < want.cols(); ++f) {
    EXPECT_EQ(got.Distinct(f), want.Distinct(f)) << what << " feature " << f;
    for (size_t j = 0; j < want.rows(); ++j) {
      ASSERT_EQ(got.Ranks(f)[j], want.Ranks(f)[j])
          << what << " feature " << f << " row " << j;
    }
  }
}

// The row lists a derivation must handle: none, one, all in order, all
// permuted, draws with repeats (a bootstrap), a random half in order and
// shuffled (a labeling session's labeled rows), and a prefix.
std::vector<std::pair<std::string, std::vector<size_t>>> RowLists(
    Rng* rng, size_t n) {
  std::vector<std::pair<std::string, std::vector<size_t>>> out;
  out.emplace_back("empty", std::vector<size_t>());
  out.emplace_back("first", std::vector<size_t>{0});
  out.emplace_back("single", std::vector<size_t>{rng->UniformIndex(n)});
  std::vector<size_t> full(n);
  std::iota(full.begin(), full.end(), size_t{0});
  out.emplace_back("full", full);
  std::vector<size_t> permuted = full;
  rng->Shuffle(&permuted);
  out.emplace_back("permuted", permuted);
  std::vector<size_t> repeated(n);
  for (size_t& i : repeated) i = rng->UniformIndex(n);
  out.emplace_back("repeated", repeated);
  std::vector<size_t> half;
  for (size_t i = 0; i < n; ++i) {
    if (rng->UniformIndex(2) == 0) half.push_back(i);
  }
  out.emplace_back("half", half);
  rng->Shuffle(&half);
  out.emplace_back("half_shuffled", half);
  out.emplace_back("prefix",
                   std::vector<size_t>(full.begin(), full.begin() + n * 4 / 5));
  return out;
}

TEST(DerivedFeatureRanks, EqualRanksSortedFromTheSelectedRows) {
  Rng rng(1225);
  for (int round = 0; round < 4; ++round) {
    // Columns from 3-value alphabets of special values (NaN, both zeros,
    // both infinities, denormals) up to all-distinct reals, so Distinct
    // spans one to several bitmap words and varies feature to feature.
    TieData d = MakeTieData(&rng, 120 + 130 * round, 12);
    const FeatureRanks whole(d.X);
    for (const auto& [name, rows] : RowLists(&rng, d.X.rows())) {
      ExpectSameRanks(FeatureRanks(whole, rows),
                      FeatureRanks(d.X.SelectRows(rows)),
                      "round " + std::to_string(round) + " " + name);
    }
  }
}

// RandomForestClassifier::SaveFitted bytes: every tree's nodes.
std::string FittedBytes(const RandomForestClassifier& forest) {
  io::Writer w;
  EXPECT_TRUE(forest.SaveFitted(&w).ok());
  return w.data();
}

TEST(DerivedFeatureRanks, ForestOnDerivedRanksEqualsForestThatSorts) {
  // The labeling session's refit: the rows are a shuffled part of the pool,
  // their ranks derived from the pool's; the forest must hold the nodes
  // Fit(X, y, w) builds from sorted ranks, under every weight regime.
  Rng rng(80);
  TieData pool = MakeTieData(&rng, 360, 10);
  const FeatureRanks pool_ranks(pool.X);
  std::vector<size_t> rows;
  for (size_t i = 0; i < pool.X.rows(); ++i) {
    if (rng.UniformIndex(5) != 0) rows.push_back(i);
  }
  rng.Shuffle(&rows);
  const Matrix X = pool.X.SelectRows(rows);
  std::vector<int> y;
  for (size_t i : rows) y.push_back(pool.y[i]);
  const FeatureRanks derived(pool_ranks, rows);
  auto variants = WeightVariants(&rng, y);
  variants.emplace_back("unweighted", std::vector<double>());
  for (const auto& [wname, weights] : variants) {
    const std::vector<double>* w = weights.empty() ? nullptr : &weights;
    for (const char* criterion : {"gini", "entropy"}) {
      RandomForestOptions opt;
      opt.n_estimators = 6;
      opt.criterion = criterion;
      opt.seed = 17;
      RandomForestClassifier sorted(opt), reused(opt);
      ASSERT_TRUE(sorted.Fit(X, y, w).ok()) << wname;
      ASSERT_TRUE(reused.Fit(X, derived, y, w).ok()) << wname;
      const std::string bytes = FittedBytes(sorted);
      EXPECT_GT(bytes.size(), 6u * 100) << wname << ": trees too small";
      EXPECT_TRUE(FittedBytes(reused) == bytes) << wname << " " << criterion;
    }
  }
}

TEST(DerivedFeatureRanks, RanksOfAnotherShapeAreRejected) {
  Rng rng(5);
  TieData d = MakeTieData(&rng, 40, 4);
  const FeatureRanks whole(d.X);
  const Matrix X = d.X.SelectRows({0, 1, 2, 3, 4, 5, 6, 7});
  const std::vector<int> y = {0, 1, 0, 1, 0, 1, 0, 1};
  const FeatureRanks wrong_rows(whole, {0, 1, 2, 3, 4, 5, 6});
  const FeatureRanks wrong_cols(X.SelectCols({0, 1, 2}));
  const FeatureRanks right(whole, {0, 1, 2, 3, 4, 5, 6, 7});
  RandomForestOptions opt;
  opt.n_estimators = 3;
  for (const FeatureRanks* ranks : {&wrong_rows, &wrong_cols}) {
    RandomForestClassifier forest(opt);
    EXPECT_EQ(forest.Fit(X, *ranks, y, nullptr).code(),
              StatusCode::kInvalidArgument);
    DecisionTreeClassifier tree;
    EXPECT_EQ(tree.Fit(X, *ranks, y, nullptr).code(),
              StatusCode::kInvalidArgument);
  }
  RandomForestClassifier forest(opt);
  EXPECT_TRUE(forest.Fit(X, right, y, nullptr).ok());
}

}  // namespace
}  // namespace autoem
