#ifndef AUTOEM_ML_MODEL_H_
#define AUTOEM_ML_MODEL_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/parallelism.h"
#include "common/status.h"
#include "fault/cancel.h"
#include "ml/dataset.h"

namespace autoem {

namespace io {
class Writer;
class Reader;
}  // namespace io

/// Binary classifier interface. Inputs are dense feature matrices; missing
/// values (NaN) must be imputed upstream except for tree-based models, which
/// route NaN down the left branch deterministically.
///
/// Labels are 0 (non-match) / 1 (match). `sample_weights`, when provided,
/// scales each example's contribution to the loss (used by class-weight
/// balancing and boosting).
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains the model. Returns InvalidArgument for degenerate inputs (empty
  /// data, single class where the model cannot handle it, arity mismatch).
  virtual Status Fit(const Matrix& X, const std::vector<int>& y,
                     const std::vector<double>* sample_weights = nullptr) = 0;

  /// P(label == 1) per row. Precondition: Fit succeeded.
  virtual std::vector<double> PredictProba(const Matrix& X) const = 0;

  /// Hard labels at the given probability threshold.
  std::vector<int> Predict(const Matrix& X, double threshold = 0.5) const {
    std::vector<double> proba = PredictProba(X);
    std::vector<int> out(proba.size());
    for (size_t i = 0; i < proba.size(); ++i) {
      out[i] = proba[i] >= threshold ? 1 : 0;
    }
    return out;
  }

  /// Deep copy of the *untrained* configuration (hyperparameters only).
  virtual std::unique_ptr<Classifier> CloneConfig() const = 0;

  /// Intra-model parallelism hint. Models that can parallelize (the forest
  /// ensembles) store it; the default ignores it. Must never change results
  /// — only wall-clock.
  virtual void SetParallelism(const Parallelism& parallelism) {
    (void)parallelism;
  }

  /// Cooperative-cancellation hook for per-trial deadlines (fault/cancel.h).
  /// Models with long inner loops (the forest ensembles) poll the token
  /// during Fit and return DeadlineExceeded once it fires; the default
  /// ignores it, which only means cancellation takes effect at the next
  /// pipeline stage boundary instead of mid-fit. A fit that was cancelled
  /// leaves the model in an unusable half-trained state — callers must
  /// discard it.
  virtual void SetCancelToken(const fault::CancelToken& cancel) {
    (void)cancel;
  }

  /// Stable model name, e.g. "random_forest".
  virtual std::string name() const = 0;

  /// Model persistence (src/io): writes/restores the *fitted* state only
  /// (trees, coefficients). Hyperparameters travel in the pipeline
  /// Configuration and are re-applied by EmPipeline::Compile before
  /// LoadFitted runs. A loaded model must PredictProba bit-identically to
  /// the saved one. The default keeps models without persistence honest:
  /// SaveModel on such a pipeline reports Unimplemented instead of writing
  /// a file that cannot be loaded.
  virtual Status SaveFitted(io::Writer* w) const {
    (void)w;
    return Status::Unimplemented(name() + ": model persistence not supported");
  }
  virtual Status LoadFitted(io::Reader* r) {
    (void)r;
    return Status::Unimplemented(name() + ": model persistence not supported");
  }

  /// Checks a fitted (or loaded) model against inputs `width` columns wide:
  /// InvalidArgument naming the model when its state reads a column at or
  /// past `width`. Model loading calls it before any prediction.
  virtual Status CheckInputWidth(size_t width) const {
    (void)width;
    return Status::Unimplemented(name() + ": model persistence not supported");
  }
};

/// Optional per-row weights must cover every row and be finite: a NaN or
/// infinite weight turns every impurity and leaf probability it touches
/// into NaN.
inline Status ValidateSampleWeights(const std::vector<double>* w,
                                    size_t rows) {
  if (w == nullptr) return Status::OK();
  if (w->size() != rows) {
    return Status::InvalidArgument("sample_weights size != y size");
  }
  for (double v : *w) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("sample_weights must be finite");
    }
  }
  return Status::OK();
}

/// Validates (X, y, weights) agreement; shared by Fit implementations.
inline Status ValidateFitInputs(const Matrix& X, const std::vector<int>& y,
                                const std::vector<double>* w) {
  if (X.rows() == 0 || X.cols() == 0) {
    return Status::InvalidArgument("empty training matrix");
  }
  if (X.rows() != y.size()) {
    return Status::InvalidArgument("X rows != y size");
  }
  return ValidateSampleWeights(w, y.size());
}

}  // namespace autoem

#endif  // AUTOEM_ML_MODEL_H_
