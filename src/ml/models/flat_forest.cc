#include "ml/models/flat_forest.h"

#include <algorithm>

namespace autoem {

namespace {

// Rows walked in lockstep per block: enough independent node fetches per
// step to hide each one's latency behind the others, few enough to keep a
// block's cursors and row pointers in registers / L1.
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
  const double* const pay = payload_.data();
  for (size_t b = begin; b < end; b += kRowBlock) {
    const size_t nb = std::min(kRowBlock, end - b);
    // Lanes past the block's last row repeat it, so every step runs all
    // kRowBlock lanes and a padding lane never outlasts a real one.
    const double* rows[kRowBlock];
    for (size_t i = 0; i < kRowBlock; ++i) {
      rows[i] = X.RowPtr(b + std::min(i, nb - 1));
    }
    double acc[kRowBlock] = {};
    uint32_t pos[kRowBlock] = {};
    for (size_t t = 0; t < roots_.size(); ++t) {
      uint32_t cur[kRowBlock];
      for (size_t i = 0; i < kRowBlock; ++i) cur[i] = roots_[t];
      // A leaf steps to itself, so a tree needs at most its depth in steps,
      // and a step that moves no lane means every lane sits on a leaf.
      for (uint32_t step = 0; step < depths_[t]; ++step) {
        uint32_t moved = 0;
        // Fully unrolled, the lanes' node fetches are independent loads in
        // straight-line code and overlap (about 20% faster walks on the
        // forest bench than the rolled loop).
#pragma GCC unroll 16
        for (size_t i = 0; i < kRowBlock; ++i) {
          const Node& n = nds[cur[i]];
          // !(v > threshold) sends v <= threshold AND NaN left — exactly
          // the SplitValue(v) <= threshold routing of the scalar walk.
          const uint32_t next =
              n.left + static_cast<uint32_t>(rows[i][n.feature] > n.threshold);
          moved |= next ^ cur[i];
          cur[i] = next;
        }
        if (moved == 0) break;
      }
      for (size_t i = 0; i < kRowBlock; ++i) {
        const double p = pay[cur[i]];
        acc[i] += p;
        if constexpr (kVotes) pos[i] += p >= 0.5;
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
    for (uint32_t step = 0; step < depths_[t]; ++step) {
      const Node& n = nds[cur];
      const uint32_t next =
          n.left + static_cast<uint32_t>(row[n.feature] > n.threshold);
      if (next == cur) break;
      cur = next;
    }
    per_tree[t] = payload_[cur];
  }
}

}  // namespace autoem
