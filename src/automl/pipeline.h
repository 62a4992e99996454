#ifndef AUTOEM_AUTOML_PIPELINE_H_
#define AUTOEM_AUTOML_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "automl/param_space.h"
#include "common/status.h"
#include "ml/model.h"
#include "preprocess/transform.h"

namespace autoem {

/// A compiled, trainable EM pipeline: imputation -> rescaling -> feature
/// preprocessing -> balancing -> classifier (auto-sklearn's four-part
/// structure, paper §III-A / Fig. 5). Built from a flat Configuration.
class EmPipeline {
 public:
  /// Compiles the configuration into transform + classifier instances.
  /// Returns NotFound / InvalidArgument for unknown components.
  static Result<EmPipeline> Compile(const Configuration& config);

  /// Trains every stage in order on the training data.
  Status Fit(const Dataset& train);

  /// Intra-pipeline parallelism (forwarded to the classifier; the forest
  /// models train/score trees concurrently). Never changes results.
  void SetParallelism(const Parallelism& parallelism) {
    parallelism_ = parallelism;
    if (classifier_) classifier_->SetParallelism(parallelism);
  }
  const Parallelism& parallelism() const { return parallelism_; }

  /// Per-trial cancellation (fault/cancel.h): Fit checks the token between
  /// stages and forwards it to the classifier so long forest fits bail out
  /// mid-ensemble. A cancelled Fit returns DeadlineExceeded and leaves the
  /// pipeline half-trained — discard it.
  void SetCancelToken(const fault::CancelToken& cancel) {
    cancel_ = cancel;
    if (classifier_) classifier_->SetCancelToken(cancel);
  }

  /// P(match) per row of X (same feature width as the training data).
  std::vector<double> PredictProba(const Matrix& X) const;
  std::vector<int> Predict(const Matrix& X, double threshold = 0.5) const;

  /// Fig. 11-style human-readable pipeline dump.
  std::string ToString() const;

  const Configuration& config() const { return config_; }

  /// Feature names surviving the transform chain (valid after Fit when the
  /// training Dataset carried names).
  const std::vector<std::string>& active_feature_names() const {
    return active_feature_names_;
  }

  /// Ablation helpers (paper Fig. 12): return a copy of `config` with the
  /// data-preprocessing knobs (balancing + rescaling) or the
  /// feature-preprocessing knob reset to none.
  static Configuration DisableDataPreprocessing(Configuration config);
  static Configuration DisableFeaturePreprocessing(Configuration config);

  /// Model persistence (src/io). SaveFitted writes the Configuration plus
  /// every stage's fitted state (imputer statistics, scaler params, feature
  /// selection/PCA/agglomeration state, classifier model); LoadFitted
  /// re-Compiles from the saved Configuration — reconstructing the exact
  /// component graph and hyperparameters — then restores the fitted state,
  /// yielding bit-identical PredictProba. Precondition for SaveFitted: Fit
  /// succeeded. Returns Unimplemented when the classifier (or a transform)
  /// has no persistence support.
  Status SaveFitted(io::Writer* w) const;
  static Result<EmPipeline> LoadFitted(io::Reader* r);

  /// Checks that a fitted (or loaded) pipeline's stages fit together for
  /// inputs `input_width` columns wide: each transform reads what the stage
  /// before it writes, the last width equals active_feature_names().size(),
  /// and the classifier reads no column past it. InvalidArgument naming the
  /// stage otherwise.
  Status CheckWidths(size_t input_width) const;

 private:
  Matrix RunTransforms(const Matrix& X) const;

  Configuration config_;
  Parallelism parallelism_;
  fault::CancelToken cancel_;
  std::string balancing_ = "none";
  std::unique_ptr<Transform> imputer_;
  std::unique_ptr<Transform> scaler_;        // may be null
  std::unique_ptr<Transform> preprocessor_;  // may be null
  std::unique_ptr<Classifier> classifier_;
  std::vector<std::string> active_feature_names_;
  uint64_t seed_ = 11;
};

}  // namespace autoem

#endif  // AUTOEM_AUTOML_PIPELINE_H_
