#include "ml/models/flat_forest.h"

#include <algorithm>

namespace autoem {

namespace {

// Rows walked in lockstep per block: enough lanes to hide a node fetch
// behind the other lanes' compares, small enough to live in registers /
// L1 alongside the hot tree levels.
constexpr size_t kRowBlock = 16;

}  // namespace

void FlatForest::AccumulateRows(const Matrix& X, size_t begin, size_t end,
                                double* sums, uint32_t* votes) const {
  if (votes != nullptr) {
    Walk<true>(X, begin, end, sums, votes);
  } else {
    Walk<false>(X, begin, end, sums, nullptr);
  }
}

template <bool kVotes>
void FlatForest::Walk(const Matrix& X, size_t begin, size_t end, double* sums,
                      uint32_t* votes) const {
  AUTOEM_CHECK(!roots_.empty());
  const Node* const nds = nodes_.data();
  for (size_t b = begin; b < end; b += kRowBlock) {
    const size_t nb = std::min(kRowBlock, end - b);
    const double* rows[kRowBlock];
    double acc[kRowBlock];
    uint32_t cur[kRowBlock];
    uint32_t pos[kRowBlock];
    for (size_t i = 0; i < nb; ++i) {
      rows[i] = X.RowPtr(b + i);
      acc[i] = 0.0;
      pos[i] = 0;
    }
    for (const uint32_t root : roots_) {
      for (size_t i = 0; i < nb; ++i) cur[i] = root;
      __builtin_prefetch(&nds[root]);
      bool active = true;
      while (active) {
        active = false;
        for (size_t i = 0; i < nb; ++i) {
          const Node& n = nds[cur[i]];
          if (n.feature < 0) continue;
          const double v = rows[i][n.feature];
          // !(v > threshold) sends v <= threshold AND NaN left — exactly
          // the SplitValue(v) <= threshold routing of the scalar walk.
          const uint32_t next = !(v > n.threshold) ? n.left : n.right;
          cur[i] = next;
          __builtin_prefetch(&nds[next]);
          active = true;
        }
      }
      for (size_t i = 0; i < nb; ++i) {
        acc[i] += nds[cur[i]].payload;
        if constexpr (kVotes) pos[i] += nds[cur[i]].payload >= 0.5;
      }
    }
    for (size_t i = 0; i < nb; ++i) {
      sums[b - begin + i] = acc[i];
      if constexpr (kVotes) votes[b - begin + i] = pos[i];
    }
  }
}

void FlatForest::PredictRowPerTree(const double* row, double* per_tree) const {
  AUTOEM_CHECK(!roots_.empty());
  const Node* const nds = nodes_.data();
  for (size_t t = 0; t < roots_.size(); ++t) {
    uint32_t cur = roots_[t];
    while (nds[cur].feature >= 0) {
      const Node& n = nds[cur];
      const double v = row[n.feature];
      cur = !(v > n.threshold) ? n.left : n.right;
    }
    per_tree[t] = nds[cur].payload;
  }
}

}  // namespace autoem
