#ifndef AUTOEM_ML_MODELS_RANDOM_FOREST_H_
#define AUTOEM_ML_MODELS_RANDOM_FOREST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/parallelism.h"
#include "common/params.h"
#include "ml/models/decision_tree.h"
#include "ml/models/flat_forest.h"

namespace autoem {

/// Random forest hyperparameters; names track scikit-learn (Fig. 11).
struct RandomForestOptions {
  int n_estimators = 100;
  std::string criterion = "gini";
  int max_depth = 0;  // unlimited
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Fraction of features per split; <= 0 selects sqrt(n_features).
  double max_features = -1.0;
  double min_impurity_decrease = 0.0;
  bool bootstrap = true;
  /// Extra-Trees mode: random split thresholds, no bootstrap by default.
  bool random_thresholds = false;
  uint64_t seed = 7;
  /// Tree training and inference parallelism. Per-tree seeds and bootstrap
  /// streams are pre-drawn from `seed` before dispatch, so the fitted forest
  /// and its predictions are bit-identical at any thread count.
  Parallelism parallelism;
};

/// Bagged ensemble of CART trees. Probability = mean of per-tree leaf
/// probabilities; VoteConfidence exposes the tree-agreement signal that
/// AutoML-EM-Active uses to pick active-learning vs self-training batches
/// (paper §IV, Fig. 7).
class RandomForestClassifier : public Classifier {
 public:
  explicit RandomForestClassifier(RandomForestOptions options = {});

  /// Builds from an AutoML hyperparameter map; unknown keys are ignored.
  static std::unique_ptr<Classifier> FromParams(const ParamMap& params);

  /// Builds FeatureRanks(X) (unless random_thresholds, which never scans)
  /// and fits as the overload below.
  Status Fit(const Matrix& X, const std::vector<int>& y,
             const std::vector<double>* sample_weights = nullptr) override;
  /// Fit with ranks built by the caller, as a labeling session derives each
  /// refit's from its pool's (FeatureRanks(whole, rows)); the fitted forest
  /// is the one Fit(X, y, w) gives. Precondition: `ranks` describe X; a
  /// shape other than X's is rejected. Extra-Trees ignores them.
  Status Fit(const Matrix& X, const FeatureRanks& ranks,
             const std::vector<int>& y,
             const std::vector<double>* sample_weights);
  std::vector<double> PredictProba(const Matrix& X) const override;
  std::unique_ptr<Classifier> CloneConfig() const override;
  Status SaveFitted(io::Writer* w) const override;
  Status LoadFitted(io::Reader* r) override;
  Status CheckInputWidth(size_t width) const override;
  void SetParallelism(const Parallelism& parallelism) override {
    options_.parallelism = parallelism;
  }
  void SetCancelToken(const fault::CancelToken& cancel) override {
    cancel_ = cancel;
  }
  std::string name() const override {
    return options_.random_thresholds ? "extra_trees" : "random_forest";
  }

  /// Fraction of trees that vote with the ensemble majority for each row, in
  /// [0.5, 1]. High values = confident (self-training candidates); values
  /// near 0.5 = uncertain (active-learning candidates). A tree votes
  /// positive when its leaf probability is >= 0.5.
  std::vector<double> VoteConfidence(const Matrix& X) const;

  struct ProbaAndConfidence {
    std::vector<double> proba;       // == PredictProba(X)
    std::vector<double> confidence;  // == VoteConfidence(X)
  };
  /// Both of the above from one walk of the forest, as the labeling loop
  /// needs them for the same unlabeled pool every iteration.
  ProbaAndConfidence PredictProbaAndConfidence(const Matrix& X) const;

  size_t NumTrees() const { return trees_.size(); }
  const RandomForestOptions& options() const { return options_; }

 private:
  /// Both Fits: `ranks` is null when Fit(X, y, w) should build them.
  Status FitWith(const Matrix& X, const FeatureRanks* ranks,
                 const std::vector<int>& y,
                 const std::vector<double>* sample_weights);

  /// Rebuilds the flattened inference layout from trees_ (after Fit and
  /// LoadFitted); PredictProba walks flat_, trees_ stays the source of
  /// truth for serialization and the scalar reference walk.
  void RebuildFlat();

  /// Walks X through flat_ in row chunks: proba[r] = mean leaf payload and,
  /// when `votes` is non-null, votes[r] = trees voting positive.
  void Score(const Matrix& X, double* proba, uint32_t* votes) const;

  RandomForestOptions options_;
  fault::CancelToken cancel_;
  std::vector<DecisionTreeClassifier> trees_;
  FlatForest flat_;
};

}  // namespace autoem

#endif  // AUTOEM_ML_MODELS_RANDOM_FOREST_H_
