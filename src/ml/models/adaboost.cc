#include "ml/models/adaboost.h"

#include <cmath>

#include "common/rng.h"
#include "ml/models/linear_common.h"

namespace autoem {

AdaBoostClassifier::AdaBoostClassifier(AdaBoostOptions options)
    : options_(options) {}

std::unique_ptr<Classifier> AdaBoostClassifier::FromParams(
    const ParamMap& params) {
  AdaBoostOptions opt;
  opt.n_estimators = static_cast<int>(GetInt(params, "n_estimators", 50));
  opt.learning_rate = GetDouble(params, "learning_rate", 1.0);
  opt.base_max_depth = static_cast<int>(GetInt(params, "base_max_depth", 1));
  opt.seed = static_cast<uint64_t>(GetInt(params, "seed", 29));
  return std::make_unique<AdaBoostClassifier>(opt);
}

Status AdaBoostClassifier::Fit(const Matrix& X, const std::vector<int>& y,
                               const std::vector<double>* sample_weights) {
  AUTOEM_RETURN_IF_ERROR(ValidateFitInputs(X, y, sample_weights));
  trees_.clear();
  alphas_.clear();
  const size_t n = X.rows();

  std::vector<double> w =
      sample_weights ? *sample_weights : std::vector<double>(n, 1.0);
  double w_sum = 0.0;
  for (double wi : w) w_sum += wi;
  if (w_sum <= 0.0) {
    return Status::InvalidArgument("all sample weights are zero");
  }
  for (double& wi : w) wi /= w_sum;

  Rng rng(options_.seed);
  TreeOptions tree_opt;
  tree_opt.max_depth = options_.base_max_depth;
  tree_opt.min_samples_leaf = 1;
  // Every round refits the same X under new weights, so the split ranks
  // are built once.
  if (n > FeatureRanks::kMaxRows) {
    return Status::InvalidArgument("adaboost: too many rows");
  }
  const FeatureRanks ranks(X);

  for (int t = 0; t < options_.n_estimators; ++t) {
    tree_opt.seed = rng.engine()();
    DecisionTreeClassifier tree(tree_opt);
    Status st = tree.Fit(X, ranks, y, &w);
    if (!st.ok()) break;
    std::vector<int> pred = tree.Predict(X);

    double err = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (pred[i] != y[i]) err += w[i];
    }
    if (err >= 0.5) break;             // weak learner no better than chance
    err = std::max(err, 1e-10);
    double alpha =
        options_.learning_rate * 0.5 * std::log((1.0 - err) / err);

    trees_.push_back(std::move(tree));
    alphas_.push_back(alpha);
    if (err <= 1e-10) break;           // perfect learner; ensemble is done

    // Reweight and renormalize.
    double new_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double sign = pred[i] == y[i] ? -1.0 : 1.0;
      w[i] *= std::exp(sign * alpha * 2.0);
      new_sum += w[i];
    }
    for (double& wi : w) wi /= new_sum;
  }

  if (trees_.empty()) {
    // Fall back to one unweighted tree so Predict always works.
    tree_opt.seed = rng.engine()();
    trees_.emplace_back(tree_opt);
    alphas_.push_back(1.0);
    AUTOEM_RETURN_IF_ERROR(trees_.back().Fit(X, ranks, y, sample_weights));
  }
  return Status::OK();
}

std::vector<double> AdaBoostClassifier::PredictProba(const Matrix& X) const {
  AUTOEM_CHECK(!trees_.empty());
  std::vector<double> score(X.rows(), 0.0);
  for (size_t t = 0; t < trees_.size(); ++t) {
    for (size_t r = 0; r < X.rows(); ++r) {
      double vote =
          trees_[t].PredictRowProba(X.RowPtr(r)) >= 0.5 ? 1.0 : -1.0;
      score[r] += alphas_[t] * vote;
    }
  }
  std::vector<double> out(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) out[r] = Sigmoid(2.0 * score[r]);
  return out;
}

std::unique_ptr<Classifier> AdaBoostClassifier::CloneConfig() const {
  return std::make_unique<AdaBoostClassifier>(options_);
}

}  // namespace autoem
