#include "text/similarity.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "text/tokenizer.h"

namespace autoem {

namespace {

// Intersection size of two token multiset-collapsed sets.
size_t SetIntersectionSize(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> set_a(a.begin(), a.end());
  std::unordered_set<std::string_view> seen;
  size_t count = 0;
  for (const auto& tok : b) {
    if (set_a.count(tok) && seen.insert(tok).second) ++count;
  }
  return count;
}

size_t SetSize(const std::vector<std::string>& v) {
  std::unordered_set<std::string_view> s(v.begin(), v.end());
  return s.size();
}

constexpr int kMatchScore = 1;
constexpr int kMismatchScore = -1;
constexpr int kGapScore = -1;

}  // namespace

namespace reference {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  // One-row dynamic program over the shorter string.
  std::vector<int> row(n + 1);
  for (size_t j = 0; j <= n; ++j) row[j] = static_cast<int>(j);
  for (size_t i = 1; i <= m; ++i) {
    int prev_diag = row[0];
    row[0] = static_cast<int>(i);
    for (size_t j = 1; j <= n; ++j) {
      int insert_cost = row[j] + 1;
      int delete_cost = row[j - 1] + 1;
      int subst_cost = prev_diag + (a[j - 1] == b[i - 1] ? 0 : 1);
      prev_diag = row[j];
      row[j] = std::min({insert_cost, delete_cost, subst_cost});
    }
  }
  return row[n];
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t match_window =
      std::max<size_t>(1, std::max(la, lb) / 2) - 1;

  std::vector<bool> a_matched(la, false);
  std::vector<bool> b_matched(lb, false);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > match_window ? i - match_window : 0;
    size_t hi = std::min(lb, i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions among matched characters.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  const double kPrefixScale = 0.1;
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * kPrefixScale * (1.0 - jaro);
}

double NeedlemanWunsch(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  std::vector<int> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = static_cast<int>(j) * kGapScore;
  for (size_t i = 1; i <= n; ++i) {
    int prev_diag = row[0];
    row[0] = static_cast<int>(i) * kGapScore;
    for (size_t j = 1; j <= m; ++j) {
      int diag = prev_diag +
                 (a[i - 1] == b[j - 1] ? kMatchScore : kMismatchScore);
      int up = row[j] + kGapScore;
      int left = row[j - 1] + kGapScore;
      prev_diag = row[j];
      row[j] = std::max({diag, up, left});
    }
  }
  // Raw score normalized by max(n, m) lands in [-1, 1]; rescale into [0, 1]
  // so the feature range matches every other string kernel (identical -> 1,
  // empty-vs-nonempty and all-mismatch -> 0).
  const double normalized =
      static_cast<double>(row[m]) / static_cast<double>(std::max(n, m));
  return (normalized + 1.0) / 2.0;
}

double SmithWaterman(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return (n == 0 && m == 0) ? 1.0 : 0.0;
  std::vector<int> row(m + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    int prev_diag = row[0];
    row[0] = 0;
    for (size_t j = 1; j <= m; ++j) {
      int diag = prev_diag +
                 (a[i - 1] == b[j - 1] ? kMatchScore : kMismatchScore);
      int up = row[j] + kGapScore;
      int left = row[j - 1] + kGapScore;
      prev_diag = row[j];
      row[j] = std::max({0, diag, up, left});
      best = std::max(best, row[j]);
    }
  }
  return static_cast<double>(best) / static_cast<double>(std::min(n, m));
}

double MongeElkan(std::string_view a, std::string_view b) {
  std::vector<std::string> tokens_a = WhitespaceTokenize(a);
  std::vector<std::string> tokens_b = WhitespaceTokenize(b);
  if (tokens_a.empty() && tokens_b.empty()) return 1.0;
  if (tokens_a.empty() || tokens_b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& ta : tokens_a) {
    double best = 0.0;
    for (const auto& tb : tokens_b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(tokens_a.size());
}

}  // namespace reference

namespace {

// Myers' bit-parallel edit distance, single-word case: pattern |a| <= 64.
// The DP column for the pattern is encoded as vertical-delta bit vectors
// Pv/Mv (+1/-1); each text character updates them in O(1) word ops.
int MyersLevenshtein64(std::string_view a, std::string_view b) {
  const size_t m = a.size();
  uint64_t peq[256] = {0};
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
  }
  const uint64_t last = uint64_t{1} << (m - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = static_cast<int>(m);
  for (const char c : b) {
    const uint64_t eq = peq[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++score;
    else if (mh & last) --score;
    ph = (ph << 1) | 1;
    mh = mh << 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

// Blocked variant for patterns longer than 64 bytes (Myers 1999 / Hyyrö
// 2003): the pattern is split into 64-bit blocks and the horizontal
// deltas carry between blocks; the score is tracked at the pattern's
// last row, bit (m-1) % 64 of the top block.
int MyersLevenshteinBlocked(std::string_view a, std::string_view b) {
  const size_t m = a.size();
  const size_t words = (m + 63) / 64;
  std::vector<uint64_t> peq(256 * words, 0);
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i]) * words + i / 64] |=
        uint64_t{1} << (i % 64);
  }
  std::vector<uint64_t> pv(words, ~uint64_t{0});
  std::vector<uint64_t> mv(words, 0);
  const uint64_t top_bit = uint64_t{1} << ((m - 1) % 64);
  int score = static_cast<int>(m);
  for (const char c : b) {
    const uint64_t* eq_row = &peq[static_cast<unsigned char>(c) * words];
    uint64_t ph_in = 1;
    uint64_t mh_in = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t eq = eq_row[w];
      const uint64_t pv_w = pv[w];
      const uint64_t mv_w = mv[w];
      const uint64_t xv = eq | mv_w;
      eq |= mh_in;  // incoming -1 horizontal delta extends the match chain
      const uint64_t xh = (((eq & pv_w) + pv_w) ^ pv_w) | eq;
      uint64_t ph = mv_w | ~(xh | pv_w);
      uint64_t mh = pv_w & xh;
      if (w + 1 == words) {
        if (ph & top_bit) ++score;
        else if (mh & top_bit) --score;
      }
      const uint64_t ph_out = ph >> 63;
      const uint64_t mh_out = mh >> 63;
      ph = (ph << 1) | ph_in;
      mh = (mh << 1) | mh_in;
      pv[w] = mh | ~(xv | ph);
      mv[w] = ph & xv;
      ph_in = ph_out;
      mh_in = mh_out;
    }
  }
  return score;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return static_cast<int>(b.size());
  if (a.size() <= 64) return MyersLevenshtein64(a, b);
  return MyersLevenshteinBlocked(a, b);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  return LevenshteinSimilarityFromDistance(LevenshteinDistance(a, b),
                                           a.size(), b.size());
}

namespace {

// ---- Jaro: greedy matching on bitsets ---------------------------------------
//
// The scalar scan gives a[i] the first unmatched j inside its window with
// b[j] == a[i]. With peq[c] the set of positions where b holds byte c, that
// j is the lowest set bit of peq[a[i]] & ~b_matched & window, so both
// kernels below pick the same pairs as the scan, in the same order.

struct JaroCounts {
  size_t matches = 0;
  size_t transpositions = 0;
};

// Both strings fit in one word each.
JaroCounts JaroCounts64(std::string_view a, std::string_view b,
                        size_t window) {
  uint64_t peq[256];
  // Only the rows the two strings index are read, so only those are cleared.
  for (const char c : a) peq[static_cast<unsigned char>(c)] = 0;
  for (const char c : b) peq[static_cast<unsigned char>(c)] = 0;
  for (size_t j = 0; j < b.size(); ++j) {
    peq[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
  }
  uint64_t a_matched = 0;
  uint64_t b_matched = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = i + window + 1;  // exclusive; peq has no bit >= |b|
    const uint64_t in_window =
        (hi >= 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1) &
        (~uint64_t{0} << lo);
    const uint64_t candidates =
        peq[static_cast<unsigned char>(a[i])] & ~b_matched & in_window;
    if (candidates != 0) {
      a_matched |= uint64_t{1} << i;
      b_matched |= candidates & -candidates;
    }
  }
  JaroCounts counts;
  counts.matches = static_cast<size_t>(std::popcount(a_matched));
  for (uint64_t am = a_matched, bm = b_matched; am != 0;
       am &= am - 1, bm &= bm - 1) {
    counts.transpositions +=
        a[std::countr_zero(am)] != b[std::countr_zero(bm)];
  }
  return counts;
}

// Either string is longer than 64 bytes: the same scan over multi-word
// bitsets, visiting only the words the window covers.
JaroCounts JaroCountsBlocked(std::string_view a, std::string_view b,
                             size_t window) {
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t words = (lb + 63) / 64;
  thread_local std::vector<uint64_t> peq;
  thread_local std::vector<uint64_t> a_matched;
  thread_local std::vector<uint64_t> b_matched;
  peq.assign(256 * words, 0);
  a_matched.assign((la + 63) / 64, 0);
  b_matched.assign(words, 0);
  for (size_t j = 0; j < lb; ++j) {
    peq[static_cast<unsigned char>(b[j]) * words + j / 64] |= uint64_t{1}
                                                              << (j % 64);
  }
  JaroCounts counts;
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(lb, i + window + 1);  // exclusive
    if (lo >= hi) break;  // windows only move right: no later a[i] matches
    const uint64_t* eq = &peq[static_cast<unsigned char>(a[i]) * words];
    const size_t first = lo / 64;
    const size_t last = (hi - 1) / 64;
    for (size_t k = first; k <= last; ++k) {
      uint64_t candidates = eq[k] & ~b_matched[k];
      if (k == first) candidates &= ~uint64_t{0} << (lo % 64);
      if (k == last) candidates &= ~uint64_t{0} >> (63 - (hi - 1) % 64);
      if (candidates != 0) {
        b_matched[k] |= candidates & -candidates;
        a_matched[i / 64] |= uint64_t{1} << (i % 64);
        ++counts.matches;
        break;
      }
    }
  }
  // Walk both matched sets in order; they hold the same number of bits.
  size_t kb = 0;
  uint64_t bm = b_matched[0];
  for (size_t ka = 0; ka < a_matched.size(); ++ka) {
    for (uint64_t am = a_matched[ka]; am != 0; am &= am - 1) {
      while (bm == 0) bm = b_matched[++kb];
      counts.transpositions += a[ka * 64 + std::countr_zero(am)] !=
                               b[kb * 64 + std::countr_zero(bm)];
      bm &= bm - 1;
    }
  }
  return counts;
}

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t match_window =
      std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  const JaroCounts counts = la <= 64 && lb <= 64
                                ? JaroCounts64(a, b, match_window)
                                : JaroCountsBlocked(a, b, match_window);
  if (counts.matches == 0) return 0.0;
  // The reference's expression, on the same integers.
  double m = static_cast<double>(counts.matches);
  return (m / la + m / lb + (m - counts.transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  return JaroWinklerFromJaro(JaroSimilarity(a, b), a, b);
}

double ExactMatch(std::string_view a, std::string_view b) {
  return a == b ? 1.0 : 0.0;
}

namespace {

// ---- NW / SW: anti-diagonal DP over 8 x int16 lanes -------------------------
//
// H[i][j] depends on H[i-1][j-1], H[i-1][j] and H[i][j-1], which lie on the
// two previous anti-diagonals d-1 and d-2 (d = i + j). Indexed by i, a
// diagonal's cells read a[i-1] and b[d-i-1]; both are contiguous in i once b
// is reversed, so eight consecutive cells are one vector step. The global
// (NW) and local (SW) DPs read the same bytes, so one pass can run both:
// each step then loads a and b and builds the substitution scores once.
// The lanes use only the vector-extension operations GCC and Clang share.

typedef int16_t Lanes __attribute__((vector_size(16)));
constexpr size_t kLaneCount = sizeof(Lanes) / sizeof(int16_t);

constexpr Lanes Splat(int16_t x) { return Lanes{x, x, x, x, x, x, x, x}; }

Lanes Load(const int16_t* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store(int16_t* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

// A lane loop, not a mask select: GCC compiles it to one pmaxsw at -O2,
// where (x & (x > y)) | (y & ~(x > y)) took four instructions.
Lanes Max(Lanes x, Lanes y) {
  Lanes r;
  for (size_t k = 0; k < kLaneCount; ++k) r[k] = x[k] > y[k] ? x[k] : y[k];
  return r;
}

// Per-thread buffers, grown on demand and never shrunk. Slots start at zero
// and every value later written is a DP cell, a border cell or zero, so a
// lane reading stale slots still sees values in [-limit, limit] and its
// int16 arithmetic cannot overflow.
struct AlignScratch {
  std::vector<int16_t> a;          // a's bytes, widened
  std::vector<int16_t> b;          // b's bytes reversed, widened
  std::vector<int16_t> global[3];  // the NW DP's diagonals
  std::vector<int16_t> local[3];   // the SW DP's diagonals
};

// One DP's three rotating diagonals, indexed by i, in a scratch's buffers.
// `gap` is each border cell's step from H[0][0]: kGapScore for the global
// DP, 0 for the local one, whose borders are all zero.
struct Diagonals {
  Diagonals() = default;  // a DP the pass does not track
  Diagonals(std::vector<int16_t>* buffers, int16_t gap_score)
      : h2(buffers[0].data()),
        h1(buffers[1].data()),
        h0(buffers[2].data()),
        gap(gap_score) {
    h2[0] = 0;            // H[0][0]
    h1[0] = h1[1] = gap;  // H[0][1], H[1][0]
  }

  // Cells i .. i + kLaneCount - 1 of diagonal d, from `substitution` (the
  // diagonal move's score per lane) and the two diagonals before d.
  template <bool kLocal>
  Lanes Step(size_t i, Lanes substitution) const {
    Lanes cell = Load(h2 + i - 1) + substitution;
    if constexpr (kLocal) cell = Max(cell, Splat(0));
    // On a diagonal starting where the previous one did, Load(h1 + i - 1)
    // straddles two of its stores and waits longest, so it comes last.
    cell = Max(cell, Load(h1 + i) + Splat(kGapScore));
    return Max(cell, Load(h1 + i - 1) + Splat(kGapScore));
  }

  // Writes diagonal d's border cells H[0][d] and H[d][0], then moves on.
  void Advance(size_t d, size_t n, size_t m) {
    const int16_t border = static_cast<int16_t>(gap * static_cast<int>(d));
    if (d <= m) h0[0] = border;
    if (d <= n) h0[d] = border;
    int16_t* const oldest = h2;
    h2 = h1;
    h1 = h0;
    h0 = oldest;
  }

  int16_t* h2 = nullptr;  // diagonal d - 2
  int16_t* h1 = nullptr;  // diagonal d - 1
  int16_t* h0 = nullptr;  // diagonal d
  int16_t gap = 0;
};

// The integer scores of one pass: H[n][m] of the global DP and the best
// cell of the local one.
struct AlignmentRaw {
  int global = 0;
  int local = 0;
};

// Whether a pass tracking the kGlobal and kLocal scores runs (n, m) in
// lanes. Cells must fit in int16. On diagonals one or two lane steps long,
// each step waits on the previous diagonal's store, which one of its loads
// straddles: for one score the scalar row DP stays faster until the
// shorter string spans two lane steps. A pass tracking both runs two
// independent DPs whose waits overlap; it beats the two row DPs from a
// shorter string of 3 bytes (DESIGN.md §13 has the measurements).
template <bool kGlobal, bool kLocal>
bool AlignsInLanes(size_t n, size_t m) {
  constexpr size_t kShortest = kGlobal && kLocal ? 3 : 2 * kLaneCount;
  return std::min(n, m) >= kShortest && std::max(n, m) <= kAlignmentLaneLimit;
}

// The scores that kGlobal and kLocal ask for, equal to the references'
// integers when AlignsInLanes<kGlobal, kLocal>(|a|, |b|); the other stays 0.
template <bool kGlobal, bool kLocal>
AlignmentRaw AlignAntiDiagonal(std::string_view a, std::string_view b) {
  static_assert(kGlobal || kLocal);
  // Both scores are symmetric. With i over the shorter string, at least
  // half the diagonals start at i = 1, like the one before them.
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  thread_local AlignScratch scratch;
  // A lane step reads up to kLaneCount - 1 slots past the last cell.
  auto grow = [](std::vector<int16_t>* v, size_t size) {
    if (v->size() < size) v->resize(size);
  };
  grow(&scratch.a, n + kLaneCount);
  grow(&scratch.b, m + kLaneCount);
  for (size_t k = 0; k < 3; ++k) {
    if constexpr (kGlobal) grow(&scratch.global[k], n + 1 + kLaneCount);
    if constexpr (kLocal) grow(&scratch.local[k], n + 1 + kLaneCount);
  }
  for (size_t i = 0; i < n; ++i) {
    scratch.a[i] = static_cast<unsigned char>(a[i]);
  }
  for (size_t j = 0; j < m; ++j) {
    scratch.b[j] = static_cast<unsigned char>(b[m - 1 - j]);
  }
  const int16_t* a16 = scratch.a.data();
  const int16_t* rb16 = scratch.b.data();
  Diagonals global;
  Diagonals local;
  if constexpr (kGlobal) global = Diagonals(scratch.global, kGapScore);
  if constexpr (kLocal) local = Diagonals(scratch.local, 0);
  const Lanes lane_ids = {0, 1, 2, 3, 4, 5, 6, 7};
  const Lanes substitution_step = Splat(kMatchScore - kMismatchScore);
  Lanes best = Splat(0);
  for (size_t d = 2; d <= n + m; ++d) {
    const size_t lo = d > m ? d - m : 1;  // interior cells: lo <= i <= hi
    const size_t hi = std::min(n, d - 1);
    for (size_t i = lo; i <= hi; i += kLaneCount) {
      // All-ones where a[i-1] == b[d-i-1] (reversed b at m + i - d).
      const Lanes equal = Load(a16 + i - 1) == Load(rb16 + (m + i - d));
      const Lanes substitution =
          (equal & substitution_step) + Splat(kMismatchScore);
      Lanes global_cells = Splat(0);
      Lanes local_cells = Splat(0);
      if constexpr (kGlobal) global_cells = global.Step<false>(i, substitution);
      if constexpr (kLocal) local_cells = local.Step<true>(i, substitution);
      // Lanes past the diagonal's end hold junk: zero them, so no later
      // read can see a value outside [-limit, limit].
      if (hi - i + 1 < kLaneCount) {
        const Lanes live = lane_ids < Splat(static_cast<int16_t>(hi - i + 1));
        global_cells &= live;
        local_cells &= live;
      }
      if constexpr (kGlobal) Store(global.h0 + i, global_cells);
      if constexpr (kLocal) {
        best = Max(best, local_cells);
        Store(local.h0 + i, local_cells);
      }
    }
    if constexpr (kGlobal) global.Advance(d, n, m);
    if constexpr (kLocal) local.Advance(d, n, m);
  }
  AlignmentRaw raw;
  if constexpr (kGlobal) raw.global = global.h1[n];  // H[n][m]
  if constexpr (kLocal) {
    for (size_t k = 0; k < kLaneCount; ++k) {
      raw.local = std::max<int>(raw.local, best[k]);
    }
  }
  return raw;
}

// The references' normalizations, on the same integer scores.
double NeedlemanWunschFromScore(int score, size_t n, size_t m) {
  const double normalized =
      static_cast<double>(score) / static_cast<double>(std::max(n, m));
  return (normalized + 1.0) / 2.0;
}

double SmithWatermanFromScore(int score, size_t n, size_t m) {
  return static_cast<double>(score) / static_cast<double>(std::min(n, m));
}

}  // namespace

double NeedlemanWunsch(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (!AlignsInLanes<true, false>(n, m)) {
    return reference::NeedlemanWunsch(a, b);
  }
  return NeedlemanWunschFromScore(AlignAntiDiagonal<true, false>(a, b).global,
                                  n, m);
}

double SmithWaterman(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (!AlignsInLanes<false, true>(n, m)) return reference::SmithWaterman(a, b);
  return SmithWatermanFromScore(AlignAntiDiagonal<false, true>(a, b).local, n,
                                m);
}

AlignmentScores NeedlemanWunschAndSmithWaterman(std::string_view a,
                                                std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (!AlignsInLanes<true, true>(n, m)) {
    return {reference::NeedlemanWunsch(a, b), reference::SmithWaterman(a, b)};
  }
  const AlignmentRaw raw = AlignAntiDiagonal<true, true>(a, b);
  return {NeedlemanWunschFromScore(raw.global, n, m),
          SmithWatermanFromScore(raw.local, n, m)};
}

double MongeElkan(std::string_view a, std::string_view b) {
  // Views into a and b, valid for this call only.
  thread_local std::vector<std::string_view> tokens_a;
  thread_local std::vector<std::string_view> tokens_b;
  WhitespaceTokenizeInto(a, &tokens_a);
  WhitespaceTokenizeInto(b, &tokens_b);
  if (tokens_a.empty() && tokens_b.empty()) return 1.0;
  if (tokens_a.empty() || tokens_b.empty()) return 0.0;
  double total = 0.0;
  for (const std::string_view ta : tokens_a) {
    double best = 0.0;
    for (const std::string_view tb : tokens_b) {
      // Jaro-Winkler is at most 1.0 and exactly 1.0 on identical tokens,
      // so nothing later in b can raise `best` past this point.
      if (ta == tb) {
        best = 1.0;
        break;
      }
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(tokens_a.size());
}

uint64_t JaroWinklerMemo::NewGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

JaroWinklerMemo::JaroWinklerMemo() : slots_(kSlots) {}

double JaroWinklerMemo::Get(uint64_t generation, uint32_t a_id,
                            std::string_view a, uint32_t b_id,
                            std::string_view b) {
  static_assert(std::has_single_bit(kSlots));
  constexpr int kSlotBits = std::countr_zero(kSlots);
  const uint64_t key = (uint64_t{a_id} << 32) | b_id;
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  Slot& slot = slots_[(key * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits)];
  if (slot.generation != generation || slot.key != key) {
    slot = {generation, key, JaroWinklerSimilarity(a, b)};
  }
  return slot.value;
}

double MongeElkanTokenIds(const InternedTokens& a, const InternedTokens& b,
                          uint64_t generation, JaroWinklerMemo* memo) {
  if (a.order.empty() && b.order.empty()) return 1.0;
  if (a.order.empty() || b.order.empty()) return 0.0;
  // best[k]: the score of a's distinct token ids[k].
  thread_local std::vector<double> best;
  best.resize(a.ids.size());
  size_t j = 0;  // both ID lists are sorted: one merge finds the shared ones
  for (size_t k = 0; k < a.ids.size(); ++k) {
    const uint32_t id = a.ids[k];
    while (j < b.ids.size() && b.ids[j] < id) ++j;
    if (j < b.ids.size() && b.ids[j] == id) {
      best[k] = 1.0;
      continue;
    }
    double score = 0.0;
    for (size_t m = 0; m < b.ids.size(); ++m) {
      score = std::max(
          score, memo->Get(generation, id, a.texts[k], b.ids[m], b.texts[m]));
    }
    best[k] = score;
  }
  double total = 0.0;
  for (const uint32_t k : a.order) total += best[k];
  return total / static_cast<double>(a.order.size());
}

double LevenshteinSimilarityFromDistance(int distance, size_t len_a,
                                         size_t len_b) {
  size_t max_len = std::max(len_a, len_b);
  if (max_len == 0) return 1.0;
  return 1.0 -
         static_cast<double>(distance) / static_cast<double>(max_len);
}

double JaroWinklerFromJaro(double jaro, std::string_view a,
                           std::string_view b) {
  const double kPrefixScale = 0.1;
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * kPrefixScale * (1.0 - jaro);
}

double JaccardFromSizes(size_t size_a, size_t size_b, size_t common) {
  if (size_a == 0 && size_b == 0) return 1.0;
  size_t uni = size_a + size_b - common;
  return uni == 0 ? 0.0 : static_cast<double>(common) / uni;
}

double CosineFromSizes(size_t size_a, size_t size_b, size_t common) {
  if (size_a == 0 && size_b == 0) return 1.0;
  if (size_a == 0 || size_b == 0) return 0.0;
  return static_cast<double>(common) /
         std::sqrt(static_cast<double>(size_a) * static_cast<double>(size_b));
}

double DiceFromSizes(size_t size_a, size_t size_b, size_t common) {
  if (size_a == 0 && size_b == 0) return 1.0;
  return 2.0 * common / static_cast<double>(size_a + size_b);
}

double OverlapFromSizes(size_t size_a, size_t size_b, size_t common) {
  if (size_a == 0 && size_b == 0) return 1.0;
  if (size_a == 0 || size_b == 0) return 0.0;
  return static_cast<double>(common) / std::min(size_a, size_b);
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  return JaccardFromSizes(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

double CosineSimilarity(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  return CosineFromSizes(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  return DiceFromSizes(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  return OverlapFromSizes(SetSize(a), SetSize(b), SetIntersectionSize(a, b));
}

size_t SortedIdIntersectionSize(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    count += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return count;
}

double JaccardSimilarityIds(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  return JaccardFromSizes(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double CosineSimilarityIds(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  return CosineFromSizes(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double DiceSimilarityIds(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  return DiceFromSizes(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double OverlapCoefficientIds(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  return OverlapFromSizes(a.size(), b.size(), SortedIdIntersectionSize(a, b));
}

double AbsoluteNorm(double a, double b) {
  double max_abs = std::max(std::fabs(a), std::fabs(b));
  if (max_abs == 0.0) return 1.0;
  double sim = 1.0 - std::fabs(a - b) / max_abs;
  return std::clamp(sim, 0.0, 1.0);
}

}  // namespace autoem
