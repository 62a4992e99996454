#include "em/matcher.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/timer.h"
#include "ml/metrics.h"
#include "obs/obs.h"

namespace autoem {

namespace {

// Featurization reads cells by pair id without bounds checks.
Status CheckPairIds(const PairSet& pairs) {
  for (const RecordPair& pair : pairs.pairs) {
    if (pair.left_id >= pairs.left.num_rows() ||
        pair.right_id >= pairs.right.num_rows()) {
      return Status::InvalidArgument(
          StrFormat("pair (%zu, %zu) is out of range for %zu x %zu records",
                    pair.left_id, pair.right_id, pairs.left.num_rows(),
                    pairs.right.num_rows()));
    }
  }
  return Status::OK();
}

// The token caches index both tables by the plan's attribute indices.
Status CheckScorable(const PairSet& pairs, const FeatureGenerator& generator) {
  size_t needed = 1;  // an empty schema is never scorable
  for (const FeaturePlan& p : generator.plan()) {
    needed = std::max(needed, p.attr_index + 1);
  }
  for (const TfIdfPlan& p : generator.tfidf_plans()) {
    needed = std::max(needed, p.attr_index + 1);
  }
  if (!(pairs.left.schema() == pairs.right.schema()) ||
      pairs.left.schema().num_attributes() < needed) {
    return Status::InvalidArgument(StrFormat(
        "tables must share a schema of at least the %zu attributes the "
        "feature plan reads",
        needed));
  }
  return CheckPairIds(pairs);
}

}  // namespace

MatchReport ReportAtThreshold(const PairSet& labeled_pairs,
                              const std::vector<double>& scores,
                              double threshold) {
  std::vector<int> truth;
  std::vector<int> predictions;
  for (const auto& p : labeled_pairs.pairs) {
    truth.push_back(p.label == 1 ? 1 : 0);
  }
  for (double score : scores) predictions.push_back(score >= threshold ? 1 : 0);
  return {.precision = Precision(truth, predictions),
          .recall = Recall(truth, predictions),
          .f1 = F1Score(truth, predictions),
          .num_pairs = truth.size(),
          .num_positives = labeled_pairs.NumPositives()};
}

Result<EntityMatcher> EntityMatcher::Train(const PairSet& labeled_pairs,
                                           const Options& options) {
  if (labeled_pairs.pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  AUTOEM_RETURN_IF_ERROR(CheckPairIds(labeled_pairs));
  obs::Span span("em.train");
  if (span.active()) {
    span.Arg("pairs", labeled_pairs.pairs.size());
    span.Arg("feature_generator", options.feature_generator);
  }
  auto generator = CreateFeatureGenerator(options.feature_generator);
  if (!generator.ok()) return generator.status();
  (*generator)->set_parallelism(options.automl.parallelism);
  AUTOEM_RETURN_IF_ERROR(
      (*generator)->Plan(labeled_pairs.left, labeled_pairs.right));

  Dataset train = (*generator)->Generate(labeled_pairs);
  auto automl = RunAutoMlEm(train, options.automl);
  if (!automl.ok()) return automl.status();
  return EntityMatcher(std::move(*generator), std::move(*automl));
}

Result<std::vector<double>> EntityMatcher::ScorePairs(const PairSet& pairs,
                                                      size_t chunk_size) const {
  AUTOEM_RETURN_IF_ERROR(CheckScorable(pairs, *generator_));
  if (chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  static obs::Counter* pairs_scored =
      obs::MetricsRegistry::Global().GetCounter("predict.pairs_scored");
  static obs::Counter* chunks =
      obs::MetricsRegistry::Global().GetCounter("predict.chunks");
  static obs::Histogram* chunk_ms =
      obs::MetricsRegistry::Global().GetHistogram("predict.chunk_ms");
  obs::Span span("predict.batch");
  if (span.active()) {
    span.Arg("pairs", pairs.pairs.size());
    span.Arg("chunk_size", chunk_size);
  }

  // Tables are tokenized once; every chunk reuses the shared immutable
  // caches and only materializes its own slice of the feature matrix.
  FeatureGenerator::PreparedTables prepared =
      generator_->Prepare(pairs.left, pairs.right);

  const size_t n = pairs.pairs.size();
  std::vector<double> scores;
  scores.reserve(n);
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    const size_t end = std::min(begin + chunk_size, n);
    obs::Span chunk_span("predict.chunk");
    if (chunk_span.active()) {
      chunk_span.Arg("begin", begin);
      chunk_span.Arg("size", end - begin);
    }
    Stopwatch timer;
    Matrix X = generator_->GenerateChunk(prepared, pairs.pairs, begin, end);
    std::vector<double> chunk_scores = automl_.model.PredictProba(X);
    scores.insert(scores.end(), chunk_scores.begin(), chunk_scores.end());
    pairs_scored->Add(end - begin);
    chunks->Add(1);
    chunk_ms->Observe(timer.ElapsedMillis());
  }
  return scores;
}

Result<MatchReport> EntityMatcher::Evaluate(const PairSet& labeled_pairs,
                                            double threshold) const {
  auto scores = ScorePairs(labeled_pairs);
  if (!scores.ok()) return scores.status();
  return ReportAtThreshold(labeled_pairs, *scores, threshold);
}

}  // namespace autoem
