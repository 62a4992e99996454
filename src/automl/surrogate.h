#ifndef AUTOEM_AUTOML_SURROGATE_H_
#define AUTOEM_AUTOML_SURROGATE_H_

#include <vector>

#include "common/status.h"
#include "ml/models/decision_tree.h"
#include "ml/models/flat_forest.h"

namespace autoem {

/// Random-forest *regression* surrogate, the SMAC ingredient (paper §III-A):
/// fit on (encoded configuration, observed validation F1) pairs; the
/// per-tree prediction spread provides the uncertainty needed by expected
/// improvement. `seed` fixes the bootstrap draws and each tree's feature
/// sampling.
class SurrogateForest {
 public:
  explicit SurrogateForest(uint64_t seed = 101);

  Status Fit(const Matrix& X, const std::vector<double>& y);

  /// Mean and variance of the per-tree predictions for one encoded config.
  void PredictMeanVar(const std::vector<double>& x, double* mean,
                      double* variance) const;

  bool fitted() const { return !trees_.empty(); }

 private:
  uint64_t seed_;
  std::vector<RegressionTree> trees_;
  /// Flattened inference layout rebuilt after Fit; PredictMeanVar walks it
  /// tree by tree (EI ranking evaluates hundreds of candidate configs per
  /// iteration, so the surrogate is predict-heavy).
  FlatForest flat_;
  /// Per-call scratch for the per-tree payloads (PredictMeanVar is only
  /// called from the single-threaded SMAC proposal loop).
  mutable std::vector<double> per_tree_;
};

/// Expected improvement of predicted (mean, variance) over `best_so_far`
/// for a maximization problem. Zero-variance points give max(0, mean-best).
double ExpectedImprovement(double mean, double variance, double best_so_far);

}  // namespace autoem

#endif  // AUTOEM_AUTOML_SURROGATE_H_
