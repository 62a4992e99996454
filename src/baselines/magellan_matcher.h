#ifndef AUTOEM_BASELINES_MAGELLAN_MATCHER_H_
#define AUTOEM_BASELINES_MAGELLAN_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "em/matcher.h"
#include "features/feature_gen.h"
#include "ml/model.h"
#include "preprocess/imputer.h"
#include "table/table.h"

namespace autoem {

/// The paper's human-developed baseline (§V-B): Magellan's workflow of
/// rule-based Table I features, default-hyperparameter models trained side
/// by side, and the developer picking the best model on the validation set.
/// No hyperparameter tuning, no data/feature preprocessing search — exactly
/// the gap AutoML-EM closes.
class MagellanMatcher {
 public:
  struct Options {
    /// Models Magellan offers out of the box.
    std::vector<std::string> models = {"decision_tree", "random_forest",
                                       "linear_svm", "logistic_regression",
                                       "gaussian_nb"};
    uint64_t seed = 3;
  };

  static Result<MagellanMatcher> Train(const PairSet& labeled_pairs,
                                       const Options& options);

  Result<std::vector<double>> ScorePairs(const PairSet& pairs) const;
  Result<MatchReport> Evaluate(const PairSet& labeled_pairs,
                               double threshold = 0.5) const;

  const std::string& best_model_name() const { return best_model_name_; }
  double valid_f1() const { return valid_f1_; }
  /// Validation F1 of every candidate model (the table a Magellan user
  /// inspects before picking).
  const std::vector<std::pair<std::string, double>>& model_scores() const {
    return model_scores_;
  }

 private:
  MagellanMatcher() = default;

  MagellanFeatureGenerator generator_;
  SimpleImputer imputer_;
  std::unique_ptr<Classifier> model_;
  std::string best_model_name_;
  double valid_f1_ = 0.0;
  std::vector<std::pair<std::string, double>> model_scores_;
};

}  // namespace autoem

#endif  // AUTOEM_BASELINES_MAGELLAN_MATCHER_H_
