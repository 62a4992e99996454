#ifndef AUTOEM_TEXT_SIMILARITY_H_
#define AUTOEM_TEXT_SIMILARITY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace autoem {

// String similarity primitives backing the feature-generation tables
// (Table I / Table II of the paper). Sequence measures follow the
// py_stringmatching definitions Magellan uses; token measures operate on
// token *sets*.
//
// Two implementations exist for every kernel with a fast path: the
// production kernel below and a scalar reference under `reference::`.
// The references are kept forever as the correctness oracle — the
// differential property tests (tests/kernel_property_test.cc) assert exact
// agreement on random and hostile inputs, which is what licenses every
// future rewrite of the fast path.

/// Levenshtein (edit) distance: minimum number of single-character
/// insertions, deletions, and substitutions. Myers' bit-parallel algorithm:
/// one 64-bit word when the shorter string fits in 64 bytes, the blocked
/// multi-word variant above that. Integer-exact, so results are bit-identical
/// to `reference::LevenshteinDistance`.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Normalized Levenshtein similarity: 1 - dist / max(|a|, |b|); 1.0 for two
/// empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1]. Greedy matching on bitsets: for each a[i],
/// the lowest unmatched position of b inside the match window holding the
/// same byte, one `uint64_t` per set when both strings fit in 64 bytes and
/// multi-word sets above that. Picks the same matches as the scalar scan,
/// so results are bit-identical to `reference::JaroSimilarity`.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with common-prefix boost (p = 0.1, max prefix 4).
/// At most 1.0, and exactly 1.0 for identical strings.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// 1.0 iff the strings are identical, else 0.0.
double ExactMatch(std::string_view a, std::string_view b);

/// Longest string, in bytes, the alignment kernels below run in 16-bit
/// lanes: every DP cell then lies in [-limit, limit]. Longer inputs go to
/// the scalar reference, as do pairs whose shorter string is too short for
/// the lanes to pay off: under 16 bytes for NeedlemanWunsch or
/// SmithWaterman alone, under 3 for NeedlemanWunschAndSmithWaterman, whose
/// one pass runs both DPs.
inline constexpr size_t kAlignmentLaneLimit = 30000;

/// Needleman-Wunsch global alignment score (match +1, mismatch -1, gap -1),
/// normalized by max(|a|, |b|) and affinely rescaled from the raw [-1, 1]
/// band into [0, 1] like every other string kernel: identical strings score
/// 1.0, empty-vs-nonempty and all-mismatch score 0.0, and two empty strings
/// score 1.0. Keeping the feature bounded stops alignment scores from
/// leaking an unbounded negative range into the imputer/scaler. The DP runs
/// along anti-diagonals, eight int16 cells per step; the integer score, and
/// so the double, equals `reference::NeedlemanWunsch`'s.
double NeedlemanWunsch(std::string_view a, std::string_view b);

/// Smith-Waterman local alignment score (match +1, mismatch -1, gap -1)
/// normalized by min(|a|, |b|), in [0, 1]. Same anti-diagonal kernel as
/// NeedlemanWunsch; bit-identical to `reference::SmithWaterman`.
double SmithWaterman(std::string_view a, std::string_view b);

/// Both alignment scores of one pair.
struct AlignmentScores {
  double needleman_wunsch = 0.0;
  double smith_waterman = 0.0;
};

/// NeedlemanWunsch(a, b) and SmithWaterman(a, b), bit for bit, from one
/// anti-diagonal pass: the two DPs read the same bytes, so each lane step
/// loads them and builds their substitution scores once, and the two
/// independent DPs overlap each other's waits.
AlignmentScores NeedlemanWunschAndSmithWaterman(std::string_view a,
                                                std::string_view b);

/// Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match in
/// `b`'s tokens (whitespace tokenization), the standard hybrid measure.
/// Not symmetric: MongeElkan("york", "new york city") is 1.0, the reverse
/// is not. Tokenizes into views without allocating and stops scanning `b`
/// at a token identical to the one from `a`; bit-identical to
/// `reference::MongeElkan`.
double MongeElkan(std::string_view a, std::string_view b);

// ---- final expressions ------------------------------------------------------
//
// The closing formula of each measure, written once. The string kernels,
// the token-ID kernels and the feature generator's shared per-pair
// intermediates all end in these, so a feature computed from an
// intermediate equals the kernel that computes it itself, bit for bit.

/// 1 - distance / max(len_a, len_b); 1.0 when both lengths are zero.
double LevenshteinSimilarityFromDistance(int distance, size_t len_a,
                                         size_t len_b);

/// Jaro-Winkler from `jaro` = JaroSimilarity(a, b): adds the boost of the
/// common prefix of `a` and `b` (p = 0.1, prefix capped at 4 bytes).
double JaroWinklerFromJaro(double jaro, std::string_view a,
                           std::string_view b);

/// The four set measures from |A|, |B| and |A ∩ B|.
double JaccardFromSizes(size_t size_a, size_t size_b, size_t common);
double CosineFromSizes(size_t size_a, size_t size_b, size_t common);
double DiceFromSizes(size_t size_a, size_t size_b, size_t common);
double OverlapFromSizes(size_t size_a, size_t size_b, size_t common);

// ---- Monge-Elkan on interned tokens -----------------------------------------

/// Exact Jaro-Winkler values of token pairs, keyed by the *ordered* pair of
/// their interned IDs plus a generation that names the interner. The table
/// is direct-mapped and fixed in size: a lookup is one probe, and a store
/// overwrites whatever held the slot. Every entry is the exact value of
/// JaroWinklerSimilarity(a, b), so a hit changes no bit.
///
/// The key is ordered, so an entry only ever answers the argument order it
/// was computed in: the kernel promises symmetry only up to rounding (its
/// tests compare JW(a, b) with JW(b, a) by EXPECT_DOUBLE_EQ). The
/// generation, not the interner's address, names the interner, because a
/// freed interner's address can be reused by the next one while its ID
/// values mean other tokens. Not thread-safe: keep one per thread.
class JaroWinklerMemo {
 public:
  /// Number of slots; each holds a generation, a key and a value (24 B).
  static constexpr size_t kSlots = 4096;

  /// A generation no earlier call returned in this process, never 0 (the
  /// mark of an empty slot). Take one per interner whose IDs key lookups.
  static uint64_t NewGeneration();

  JaroWinklerMemo();

  /// JaroWinklerSimilarity(a, b), where `a_id` and `b_id` are the IDs of
  /// `a` and `b` in the interner that `generation` names.
  double Get(uint64_t generation, uint32_t a_id, std::string_view a,
             uint32_t b_id, std::string_view b);

 private:
  struct Slot {
    uint64_t generation = 0;
    uint64_t key = 0;  // a_id in the high half, b_id in the low half
    double value = 0.0;
  };
  std::vector<Slot> slots_;
};

/// One operand of MongeElkanTokenIds: a string's whitespace tokens,
/// interned by the interner of the memo generation.
struct InternedTokens {
  std::span<const uint32_t> ids;             // sorted and duplicate-free
  std::span<const std::string_view> texts;   // texts[k]: the token ids[k]
  std::span<const uint32_t> order;           // order[i]: the i-th token's
                                             // index into ids
};

/// MongeElkan on interned tokens, bit-identical to it on the strings the
/// tokens came from. A token of `a` whose ID is among `b`'s scores 1.0,
/// Jaro-Winkler's maximum, which identical tokens reach. Any other takes
/// its best Jaro-Winkler over `b`'s distinct tokens, served by `memo`; a
/// max does not depend on order, and `b`'s repeats cannot raise it. Each
/// distinct token of `a` is scored once, and the scores are summed in
/// `a`'s token order, as the kernel sums them.
double MongeElkanTokenIds(const InternedTokens& a, const InternedTokens& b,
                          uint64_t generation, JaroWinklerMemo* memo);

// ---- token-set measures ----------------------------------------------------

/// |A ∩ B| / |A ∪ B|; 1.0 when both sets are empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// |A ∩ B| / sqrt(|A| * |B|) (set cosine, a.k.a. Ochiai coefficient).
double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b);

/// 2|A ∩ B| / (|A| + |B|).
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

/// |A ∩ B| / min(|A|, |B|).
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

// ---- token-ID set measures --------------------------------------------------
//
// Fast variants of the four set measures over interned token IDs. Inputs
// must be sorted and duplicate-free (TableTokenCache produces exactly that,
// via a TokenInterner shared across both tables so equal tokens get equal
// IDs). Each is a single linear merge — no hashing, no per-call allocation —
// and computes the same integer |A|, |B|, |A ∩ B| as the string overloads,
// so the resulting doubles are bit-identical.

/// |A ∩ B| for sorted duplicate-free ID vectors.
size_t SortedIdIntersectionSize(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b);

double JaccardSimilarityIds(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b);
double CosineSimilarityIds(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b);
double DiceSimilarityIds(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b);
double OverlapCoefficientIds(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b);

// ---- numeric measures -------------------------------------------------------

/// Absolute norm similarity for numbers: 1 - |a-b| / max(|a|, |b|), clamped
/// to [0, 1]; 1.0 when both are zero.
double AbsoluteNorm(double a, double b);

// ---- scalar reference kernels ----------------------------------------------
//
// Retained forever as the correctness oracle for the fast kernels above.
// Never optimized, never deleted; see DESIGN.md §13.
namespace reference {

/// Textbook one-row dynamic program. Oracle for the bit-parallel kernel.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Window scan with per-position matched flags. Oracles for the bitset
/// Jaro kernel and the Jaro-Winkler built on it.
double JaroSimilarity(std::string_view a, std::string_view b);
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Row-at-a-time int dynamic programs, any length. Oracles for the
/// anti-diagonal kernels.
double NeedlemanWunsch(std::string_view a, std::string_view b);
double SmithWaterman(std::string_view a, std::string_view b);

/// Allocating tokenizer, full scan of `b`'s tokens, reference
/// Jaro-Winkler. Oracle for the allocation-free kernel.
double MongeElkan(std::string_view a, std::string_view b);

}  // namespace reference

}  // namespace autoem

#endif  // AUTOEM_TEXT_SIMILARITY_H_
