// Differential fuzzing of the CART split search (src/ml/models/
// decision_tree.h): the input decodes to a matrix, labels, weights and tree
// options, and DecisionTreeClassifier::Fit must return the same status and
// the same node array, bit for bit, as reference::FitClassifierTree. The
// fitted tree, flattened into a FlatForest (src/ml/models/flat_forest.h),
// must then score every decoded row as the tree's scalar walk does. Last,
// the decoded rows' ranks are derived from those of a superset (the decoded
// rows plus the shadow rows) without a sort, and a tree fitted on them must
// equal the reference fit of the decoded rows alone.
#include "fuzz/fuzzer_util.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "ml/models/decision_tree.h"
#include "ml/models/flat_forest.h"

namespace {

// Cell palette: one byte picks a value the split search must treat
// carefully (NaN, both zeros, both infinities, denormals, overflowing
// midpoints) or a small real. Few values, so ties are the norm.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPalette[16] = {
    std::numeric_limits<double>::quiet_NaN(),
    -0.0,
    0.0,
    -kInf,
    kInf,
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::max(),
    -std::numeric_limits<double>::max(),
    1.0,
    2.0,
    3.0,
    -1.0,
    0.5,
    0.25,
    -2.5,
};

// A tall input tiles its decoded rows with kShadowRows copies of weight
// zero, each with its own column 0 value on a 1/128 grid from -4. Shadows
// never reach a node, but they lift column 0's distinct count D to at
// least 2,048: nodes of up to 31 rows then sort keys, more than an
// insertion sort's 16, and larger ones walk a 32-word bitmap of sparse
// ranks. Without them, D <= 64 <= 64m at every node, so every scan counts
// in one word.
constexpr size_t kShadowRows = 2048;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Both fits of one tree agree on status and, bit for bit, on every node.
bool SameFit(const autoem::Status& st,
             const std::vector<autoem::DecisionTreeClassifier::Node>& fast,
             const autoem::Result<
                 std::vector<autoem::DecisionTreeClassifier::Node>>& ref) {
  if (st.code() != ref.status().code()) return false;
  if (!st.ok()) return true;
  if (fast.size() != ref->size()) return false;
  for (size_t k = 0; k < fast.size(); ++k) {
    const auto& a = fast[k];
    const auto& b = (*ref)[k];
    if (a.feature != b.feature || Bits(a.threshold) != Bits(b.threshold) ||
        a.left != b.left || a.right != b.right ||
        Bits(a.prob_positive) != Bits(b.prob_positive)) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace autoem;
  // Layout (fuzz::TreeSeeds): rows, cols, a flags byte (bit 0 entropy,
  // bits 1-2 weight mode, bit 3 random thresholds, bit 4 tall, bit 5 the
  // derived ranks take the decoded rows in reverse order),
  // min_samples_leaf, min_samples_split, max_depth, max_features,
  // min_impurity_decrease, the tree seed; then per row a label byte, a
  // weight byte, and one byte per cell (a palette index, or 0x80 followed
  // by a raw big-endian double).
  fuzz::FuzzInput in(data, size);
  const size_t rows = 2 + in.Byte() % 63;
  const size_t cols = 1 + in.Byte() % 6;
  const uint8_t flags = in.Byte();
  TreeOptions opt;
  opt.criterion = (flags & 1) ? "entropy" : "gini";
  const int weight_mode = (flags >> 1) & 3;
  opt.random_thresholds = (flags & 8) != 0;
  const size_t shadows = (flags & 16) ? kShadowRows : 0;
  const bool reversed = (flags & 32) != 0;
  opt.min_samples_leaf = 1 + in.Byte() % 5;
  opt.min_samples_split = 2 + in.Byte() % 10;
  opt.max_depth = in.Byte() % 8;
  opt.max_features = (1 + in.Byte() % 8) / 8.0;
  opt.min_impurity_decrease = (in.Byte() % 4) / 64.0;
  opt.seed = in.Byte();

  // The superset always holds the shadows; X only when the tall flag is
  // set.
  Matrix superset(rows + kShadowRows, cols);
  std::vector<int> y(rows + kShadowRows);
  std::vector<double> w(rows + kShadowRows, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    y[r] = in.Byte() & 1;
    const uint8_t b = in.Byte();
    switch (weight_mode) {
      case 1:  // whole numbers: bootstrap counts
        w[r] = b % 4;
        break;
      case 2:  // fractions: class weights, whose sums depend on order
        w[r] = (b % 16) / 3.0;
        break;
      case 3:  // whole numbers too large to sum exactly
        w[r] = b % 4 == 3 ? 0.0 : (b % 4) * 4503599627370496.0 + 1.0;
        break;
      default:
        w[r] = 1.0;
        break;
    }
    for (size_t c = 0; c < cols; ++c) {
      const uint8_t cell = in.Byte();
      superset.At(r, c) = (cell & 0x80) ? std::bit_cast<double>(in.U64())
                                        : kPalette[cell % 16];
    }
  }
  for (size_t k = 0; k < kShadowRows; ++k) {
    const size_t t = rows + k;
    y[t] = y[k % rows];
    for (size_t c = 0; c < cols; ++c) {
      superset.At(t, c) = superset.At(k % rows, c);
    }
    superset.At(t, 0) = static_cast<double>(k) / 128.0 - 4.0;
  }

  std::vector<size_t> decoded(rows);
  std::iota(decoded.begin(), decoded.end(), size_t{0});

  // The derived leg first: the decoded rows, in input order or reversed,
  // with ranks derived from the superset's.
  {
    std::vector<size_t> picked = decoded;
    if (reversed) std::reverse(picked.begin(), picked.end());
    const Matrix sub = superset.SelectRows(picked);
    std::vector<int> sub_y;
    std::vector<double> sub_w;
    for (size_t i : picked) {
      sub_y.push_back(y[i]);
      sub_w.push_back(w[i]);
    }
    const std::vector<double>* sub_weights =
        weight_mode == 0 ? nullptr : &sub_w;
    const FeatureRanks derived(FeatureRanks(superset), picked);
    DecisionTreeClassifier tree(opt);
    const Status st = tree.Fit(sub, derived, sub_y, sub_weights);
    AUTOEM_FUZZ_ASSERT(SameFit(
        st, tree.nodes(),
        reference::FitClassifierTree(opt, sub, sub_y, sub_weights)));
  }

  const Matrix X = shadows != 0 ? superset : superset.SelectRows(decoded);
  y.resize(rows + shadows);
  w.resize(rows + shadows);
  const std::vector<double>* weights =
      weight_mode == 0 && shadows == 0 ? nullptr : &w;

  DecisionTreeClassifier tree(opt);
  const Status st = tree.Fit(X, y, weights);
  AUTOEM_FUZZ_ASSERT(
      SameFit(st, tree.nodes(),
              reference::FitClassifierTree(opt, X, y, weights)));
  if (!st.ok()) return 0;
  const auto& fast = tree.nodes();

  FlatForest flat;
  flat.AppendTree(fast, [](const DecisionTreeClassifier::Node& n) {
    return n.prob_positive;
  });
  std::vector<double> sums(rows);
  std::vector<uint32_t> votes(rows);
  flat.AccumulateRows(X, 0, rows, sums.data(), votes.data());
  for (size_t r = 0; r < rows; ++r) {
    const double p = tree.PredictRowProba(X.RowPtr(r));
    double per_tree = 0.0;
    flat.PredictRowPerTree(X.RowPtr(r), &per_tree);
    AUTOEM_FUZZ_ASSERT(Bits(sums[r]) == Bits(p));
    AUTOEM_FUZZ_ASSERT(Bits(per_tree) == Bits(p));
    AUTOEM_FUZZ_ASSERT(votes[r] == (p >= 0.5 ? 1u : 0u));
  }
  return 0;
}
