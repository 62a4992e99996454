#include "baselines/magellan_matcher.h"

#include "ml/metrics.h"
#include "ml/models/model_registry.h"

namespace autoem {

namespace {

/// Share of the labeled pairs the developer holds out to pick a model.
constexpr double kValidFraction = 0.2;

}  // namespace

Result<MagellanMatcher> MagellanMatcher::Train(const PairSet& labeled_pairs,
                                               const Options& options) {
  if (labeled_pairs.pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  if (options.models.empty()) {
    return Status::InvalidArgument("no candidate models");
  }
  AUTOEM_RETURN_IF_ERROR(CheckPairIds(labeled_pairs));

  MagellanMatcher matcher;
  AUTOEM_RETURN_IF_ERROR(
      matcher.generator_.Plan(labeled_pairs.left, labeled_pairs.right));
  Dataset all = matcher.generator_.Generate(labeled_pairs);

  Rng rng(options.seed);
  SplitResult split = TrainTestSplit(all, kValidFraction, &rng);

  AUTOEM_RETURN_IF_ERROR(matcher.imputer_.Fit(split.train.X, split.train.y));
  Matrix train_x = matcher.imputer_.Apply(split.train.X);
  Matrix valid_x = matcher.imputer_.Apply(split.test.X);

  // Train every offered model with default hyperparameters; keep the one
  // with the best validation F1 (the Magellan how-to-guide workflow).
  double best_f1 = -1.0;
  for (const auto& name : options.models) {
    auto model = CreateClassifier(name, ParamMap{});
    if (!model.ok()) return model.status();
    Status st = (*model)->Fit(train_x, split.train.y);
    if (!st.ok()) continue;  // e.g. single-class split for gaussian_nb
    double f1 = F1Score(split.test.y, (*model)->Predict(valid_x));
    matcher.model_scores_.emplace_back(name, f1);
    if (f1 > best_f1) {
      best_f1 = f1;
      matcher.best_model_name_ = name;
    }
  }
  if (matcher.best_model_name_.empty()) {
    return Status::Internal("no candidate model could be trained");
  }
  matcher.valid_f1_ = best_f1;

  // Refit the chosen model on the full labeled data (train + valid).
  AUTOEM_RETURN_IF_ERROR(matcher.imputer_.Fit(all.X, all.y));
  Matrix all_x = matcher.imputer_.Apply(all.X);
  auto final_model = CreateClassifier(matcher.best_model_name_, ParamMap{});
  if (!final_model.ok()) return final_model.status();
  AUTOEM_RETURN_IF_ERROR((*final_model)->Fit(all_x, all.y));
  matcher.model_ = std::move(*final_model);
  return matcher;
}

Result<std::vector<double>> MagellanMatcher::ScorePairs(
    const PairSet& pairs) const {
  if (model_ == nullptr) return Status::FailedPrecondition("not trained");
  AUTOEM_RETURN_IF_ERROR(CheckScorable(pairs, generator_));
  Dataset features = generator_.Generate(pairs);
  return model_->PredictProba(imputer_.Apply(features.X));
}

Result<MatchReport> MagellanMatcher::Evaluate(const PairSet& labeled_pairs,
                                              double threshold) const {
  auto scores = ScorePairs(labeled_pairs);
  if (!scores.ok()) return scores.status();
  return ReportAtThreshold(labeled_pairs, *scores, threshold);
}

}  // namespace autoem
