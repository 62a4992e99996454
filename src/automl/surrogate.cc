#include "automl/surrogate.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace autoem {

namespace {

// Shape of every surrogate forest.
constexpr int kTrees = 24;
constexpr int kMinSamplesLeaf = 2;
constexpr double kMaxFeatures = 0.8;

}  // namespace

SurrogateForest::SurrogateForest(uint64_t seed) : seed_(seed) {}

Status SurrogateForest::Fit(const Matrix& X, const std::vector<double>& y) {
  if (X.rows() != y.size() || X.rows() == 0) {
    return Status::InvalidArgument("surrogate: bad training shape");
  }
  trees_.clear();
  flat_.Clear();
  trees_.reserve(kTrees);
  Rng rng(seed_);
  const size_t n = X.rows();
  for (int t = 0; t < kTrees; ++t) {
    TreeOptions opt;
    opt.min_samples_leaf = kMinSamplesLeaf;
    opt.min_samples_split = 2 * kMinSamplesLeaf;
    opt.max_features = kMaxFeatures;
    opt.seed = rng.engine()();
    RegressionTree tree(opt);
    // Bootstrap as integer weights.
    std::vector<double> w(n, 0.0);
    for (size_t k = 0; k < n; ++k) w[rng.UniformIndex(n)] += 1.0;
    Status st = tree.Fit(X, y, &w);
    if (!st.ok() && st.code() == StatusCode::kInvalidArgument &&
        std::all_of(w.begin(), w.end(), [](double v) { return v <= 0.0; })) {
      // Degenerate bootstrap (no surviving weight — impossible with the
      // integer resampling above unless n == 0, but kept as a guard):
      // retry once on the unresampled sample. Every other error is real
      // and propagates instead of silently refitting on different data.
      st = tree.Fit(X, y, nullptr);
    }
    if (!st.ok()) return st;
    trees_.push_back(std::move(tree));
  }
  for (const RegressionTree& tree : trees_) {
    flat_.AppendTree(tree.nodes(),
                     [](const RegressionTree::Node& n) { return n.value; });
  }
  per_tree_.assign(trees_.size(), 0.0);
  return Status::OK();
}

void SurrogateForest::PredictMeanVar(const std::vector<double>& x,
                                     double* mean, double* variance) const {
  AUTOEM_CHECK(!trees_.empty() && !flat_.empty());
  // Per-tree payloads come from the flattened layout; accumulation runs in
  // tree order, so mean/variance match the historical per-tree walk bit
  // for bit.
  flat_.PredictRowPerTree(x.data(), per_tree_.data());
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double p : per_tree_) {
    sum += p;
    sum_sq += p * p;
  }
  double n = static_cast<double>(trees_.size());
  *mean = sum / n;
  *variance = std::max(0.0, sum_sq / n - (*mean) * (*mean));
}

double ExpectedImprovement(double mean, double variance, double best_so_far) {
  double improvement = mean - best_so_far;
  if (variance <= 1e-12) return std::max(0.0, improvement);
  double sd = std::sqrt(variance);
  double z = improvement / sd;
  // Standard normal pdf and cdf.
  double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  return improvement * cdf + sd * pdf;
}

}  // namespace autoem
