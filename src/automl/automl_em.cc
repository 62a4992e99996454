#include "automl/automl_em.h"

#include <utility>

#include "obs/obs.h"

namespace autoem {

namespace {

/// Share of the labeled pairs held out for validation when the caller
/// passes no validation set (paper: 1/5 of train).
constexpr double kValidFraction = 0.2;

Dataset ConcatDatasets(const Dataset& a, const Dataset& b) {
  Dataset out;
  out.feature_names = a.feature_names;
  out.X = Matrix(a.size() + b.size(), a.X.cols());
  out.y.reserve(a.size() + b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    std::copy(a.X.RowPtr(r), a.X.RowPtr(r) + a.X.cols(), out.X.RowPtr(r));
    out.y.push_back(a.y[r]);
  }
  for (size_t r = 0; r < b.size(); ++r) {
    std::copy(b.X.RowPtr(r), b.X.RowPtr(r) + b.X.cols(),
              out.X.RowPtr(a.size() + r));
    out.y.push_back(b.y[r]);
  }
  return out;
}

}  // namespace

Result<AutoMlEmResult> RunAutoMlEm(const Dataset& train, const Dataset& valid,
                                   const AutoMlEmOptions& options) {
  if (train.size() == 0 || valid.size() == 0) {
    return Status::InvalidArgument("train and valid must be non-empty");
  }
  if (train.num_features() != valid.num_features()) {
    return Status::InvalidArgument("train/valid feature width mismatch");
  }

  obs::Span search_span("automl.search");
  if (search_span.active()) {
    search_span.Arg("algorithm", options.algorithm == SearchAlgorithm::kSmac
                                     ? std::string("smac")
                                     : std::string("random"));
    search_span.Arg("max_evaluations", options.max_evaluations);
    search_span.Arg("train_rows", train.size());
    search_span.Arg("valid_rows", valid.size());
  }
  AUTOEM_LOG(INFO) << "automl: starting "
                   << (options.algorithm == SearchAlgorithm::kSmac
                           ? "smac"
                           : "random")
                   << " search, max_evaluations=" << options.max_evaluations
                   << ", train=" << train.size() << " valid=" << valid.size();

  ConfigurationSpace space = BuildEmSearchSpace(options.model_space);
  HoldoutEvaluator evaluator(train, valid);
  evaluator.SetParallelism(options.parallelism);

  SmacOptions smac;
  smac.base.max_evaluations = options.max_evaluations;
  smac.base.max_seconds = options.max_seconds;
  smac.base.seed = options.seed;
  smac.base.max_trial_seconds = options.max_trial_seconds;
  smac.base.checkpoint = options.checkpoint;
  smac.initial_configs = options.warm_start_configs;
  if (options.algorithm == SearchAlgorithm::kRandom) {
    smac.n_init = kRandomSearchInit;
  }
  Result<SearchOutcome> searched = SmacSearch(space, &evaluator, smac);
  if (!searched.ok()) return searched.status();
  SearchOutcome outcome = std::move(*searched);
  if (outcome.trajectory.empty()) {
    return Status::Internal("search produced no evaluations");
  }
  if (outcome.trials_failed > 0) {
    AUTOEM_LOG(WARN) << "automl: " << outcome.trials_failed << " of "
                     << outcome.trajectory.size()
                     << " trials were quarantined";
  }
  if (outcome.best_config.empty()) {
    return Status::Internal(
        "every trial failed: no usable configuration was found");
  }

  auto compiled = EmPipeline::Compile(outcome.best_config);
  if (!compiled.ok()) return compiled.status();

  AutoMlEmResult result{std::move(outcome.best_config),
                        outcome.best_valid_f1, std::move(*compiled),
                        std::move(outcome.trajectory),
                        outcome.trials_failed};
  result.model.SetParallelism(options.parallelism);
  {
    obs::Span refit_span("automl.refit");
    if (refit_span.active()) {
      refit_span.Arg("on_train_plus_valid",
                     static_cast<int>(options.refit_on_train_plus_valid));
    }
    Status fit_status =
        options.refit_on_train_plus_valid
            ? result.model.Fit(ConcatDatasets(train, valid))
            : result.model.Fit(train);
    if (!fit_status.ok()) {
      // The winning config fit during search but failed on refit (e.g. a
      // degenerate train+valid union); fall back to train-only.
      AUTOEM_RETURN_IF_ERROR(result.model.Fit(train));
    }
  }
  AUTOEM_LOG(INFO) << "automl: search done, best valid_f1="
                   << result.best_valid_f1 << " over "
                   << result.trajectory.size() << " trials";
  return result;
}

Result<AutoMlEmResult> RunAutoMlEm(const Dataset& train_all,
                                   const AutoMlEmOptions& options) {
  Rng rng(options.seed ^ 0x9e3779b97f4a7c15ull);
  SplitResult split = TrainTestSplit(train_all, kValidFraction, &rng,
                                     /*stratified=*/true);
  return RunAutoMlEm(split.train, split.test, options);
}

}  // namespace autoem
