#ifndef AUTOEM_AUTOML_AUTOML_EM_H_
#define AUTOEM_AUTOML_AUTOML_EM_H_

#include <memory>
#include <string>
#include <vector>

#include "automl/pipeline.h"
#include "automl/search_space.h"
#include "automl/smac.h"
#include "common/status.h"
#include "features/feature_gen.h"
#include "table/table.h"

namespace autoem {

enum class SearchAlgorithm {
  kSmac,
  kRandom,
};

/// Options for a full AutoML-EM run.
struct AutoMlEmOptions {
  /// AutoML-EM's restriction (paper §III-C); kAllModels reproduces the
  /// "all-model" arm of Fig. 10.
  ModelSpace model_space = ModelSpace::kRandomForestOnly;
  SearchAlgorithm algorithm = SearchAlgorithm::kSmac;
  int max_evaluations = 30;
  double max_seconds = 0.0;
  uint64_t seed = 1;
  /// Refit the winning pipeline on train+valid before returning (standard
  /// AutoML practice; disable to keep the exact searched model).
  bool refit_on_train_plus_valid = true;
  /// Warm-start configurations evaluated before the search proper, by both
  /// algorithms (simple meta-learning: carry over winners from similar past
  /// datasets).
  std::vector<Configuration> warm_start_configs;
  /// Per-trial deadline; <= 0 disables. Runaway candidate pipelines are
  /// cooperatively cancelled at the deadline and quarantined as timeouts
  /// instead of stalling the whole search.
  double max_trial_seconds = 0.0;
  /// Crash-safe checkpoint/resume of the search (see automl/checkpoint.h).
  CheckpointOptions checkpoint;
  /// Parallelism of the hot paths inside the run: every candidate
  /// pipeline's forest fit and the final refit. The search trajectory and the returned model are
  /// bit-identical at any thread count.
  Parallelism parallelism;
};

/// Outcome of an AutoML-EM run: the searched-best configuration, the final
/// fitted pipeline, and the full evaluation trajectory.
struct AutoMlEmResult {
  Configuration best_config;
  double best_valid_f1 = 0.0;
  EmPipeline model;  // fitted, ready for Predict
  std::vector<EvalRecord> trajectory;
  /// Trials quarantined by the search (errors, timeouts, non-finite scores).
  size_t trials_failed = 0;

  /// Fig. 11-style printable pipeline.
  std::string BestPipelineString() const { return model.ToString(); }
};

/// AutoML-EM (paper §III): automated pipeline search for entity matching on
/// an already-featurized dataset.
Result<AutoMlEmResult> RunAutoMlEm(const Dataset& train, const Dataset& valid,
                                   const AutoMlEmOptions& options);

/// Convenience overload: holds out a stratified 1/5 of `train_all` for
/// validation (the paper's split) and searches on the rest.
Result<AutoMlEmResult> RunAutoMlEm(const Dataset& train_all,
                                   const AutoMlEmOptions& options);

}  // namespace autoem

#endif  // AUTOEM_AUTOML_AUTOML_EM_H_
