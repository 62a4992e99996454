#include "baselines/deep_matcher.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/rng.h"

#include "ml/metrics.h"
#include "preprocess/balancing.h"
#include "text/tokenizer.h"

namespace autoem {

namespace {

// Early-stopping granularity for the stand-in trainer.
constexpr int kEpochsPerRound = 10;

// Signed hashing-trick embedding: each token adds ±1 to one bucket; the
// result is L2-normalized average pooling. Deterministic via std::hash with
// fixed salts.
size_t AccumulateTokens(const std::vector<std::string>& tokens, size_t dim,
                        uint64_t salt, double* out) {
  if (tokens.empty()) return 0;
  std::hash<std::string> hasher;
  for (const auto& tok : tokens) {
    uint64_t h = hasher(tok) ^ (salt * 0x9e3779b97f4a7c15ull);
    size_t bucket = (h >> 1) % dim;
    double sign = (h & 1) ? 1.0 : -1.0;
    out[bucket] += sign;
  }
  double norm = 0.0;
  for (size_t i = 0; i < dim; ++i) norm += out[i] * out[i];
  norm = std::sqrt(norm);
  if (norm > 0) {
    for (size_t i = 0; i < dim; ++i) out[i] /= norm;
  }
  return tokens.size();
}

}  // namespace

size_t DeepMatcherModel::representation_dim() const {
  // Per attribute: word + 3-gram families, each contributing the composed
  // [|u - v|, u ⊙ v] vectors plus two generalizable summary scalars
  // (cosine of the embeddings and relative token-count difference).
  return num_attributes_ * 2 *
         (2 * static_cast<size_t>(options_.embedding_dim) + 2);
}

std::vector<double> DeepMatcherModel::Embed(const Record& left,
                                            const Record& right) const {
  const size_t dim = static_cast<size_t>(options_.embedding_dim);
  std::vector<double> out(representation_dim(), 0.0);
  std::vector<double> u(dim), v(dim);
  size_t offset = 0;
  for (size_t a = 0; a < num_attributes_; ++a) {
    std::string ls = left.at(a).is_null() ? "" : left.at(a).ToString();
    std::string rs = right.at(a).is_null() ? "" : right.at(a).ToString();
    for (int family = 0; family < 2; ++family) {
      std::fill(u.begin(), u.end(), 0.0);
      std::fill(v.begin(), v.end(), 0.0);
      size_t count_u = 0, count_v = 0;
      if (family == 0) {
        count_u =
            AccumulateTokens(WhitespaceTokenize(ls), dim, a * 2 + 1, u.data());
        count_v =
            AccumulateTokens(WhitespaceTokenize(rs), dim, a * 2 + 1, v.data());
      } else {
        count_u =
            AccumulateTokens(QGramTokenize(ls, 3), dim, a * 2 + 2, u.data());
        count_v =
            AccumulateTokens(QGramTokenize(rs, 3), dim, a * 2 + 2, v.data());
      }
      double cosine = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        out[offset + i] = std::fabs(u[i] - v[i]);
        out[offset + dim + i] = u[i] * v[i];
        cosine += u[i] * v[i];
      }
      offset += 2 * dim;
      out[offset++] = cosine;
      out[offset++] = static_cast<double>(
                          count_u > count_v ? count_u - count_v
                                            : count_v - count_u) /
                      static_cast<double>(count_u + count_v + 1);
    }
  }
  return out;
}

Matrix DeepMatcherModel::EmbedAll(const PairSet& pairs) const {
  Matrix X(pairs.pairs.size(), representation_dim());
  for (size_t i = 0; i < pairs.pairs.size(); ++i) {
    std::vector<double> row = Embed(pairs.left.row(pairs.pairs[i].left_id),
                                    pairs.right.row(pairs.pairs[i].right_id));
    std::copy(row.begin(), row.end(), X.RowPtr(i));
  }
  return X;
}

Result<DeepMatcherModel> DeepMatcherModel::Train(const PairSet& labeled_pairs,
                                                 const Options& options) {
  if (labeled_pairs.pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  AUTOEM_RETURN_IF_ERROR(CheckScorable(labeled_pairs, /*min_attributes=*/1));
  DeepMatcherModel model;
  model.options_ = options;
  model.num_attributes_ = labeled_pairs.left.schema().num_attributes();

  MlpOptions mlp_opt;
  mlp_opt.hidden_sizes = {options.hidden_size, options.hidden_size / 2};
  mlp_opt.learning_rate = options.learning_rate;
  mlp_opt.l2 = options.l2;
  mlp_opt.seed = options.seed;
  mlp_opt.warm_start = true;
  mlp_opt.epochs = kEpochsPerRound;

  // Embed, then hold out a dev split for early stopping (DeepMatcher keeps
  // the epoch with the best dev F1; without it the stand-in memorizes small
  // EM training sets).
  Dataset all;
  all.X = model.EmbedAll(labeled_pairs);
  all.y.reserve(labeled_pairs.pairs.size());
  for (const auto& p : labeled_pairs.pairs) {
    all.y.push_back(p.label == 1 ? 1 : 0);
  }
  Rng rng(options.seed ^ 0xabcdefu);
  SplitResult split = TrainTestSplit(all, 0.15, &rng, /*stratified=*/true);
  const Dataset& train = split.train.size() >= 10 ? split.train : all;
  const Dataset& dev = split.train.size() >= 10 ? split.test : all;

  // EM candidate sets are negative-skewed; like DeepMatcher's weighted
  // cross-entropy, train with balanced class weights.
  std::vector<double> train_weights(train.y.size(), 1.0);
  auto weights = BalancedClassWeights(train.y);
  if (weights.ok()) train_weights = std::move(*weights);

  model.mlp_ = MlpClassifier(mlp_opt);
  MlpClassifier best = model.mlp_;
  double best_f1 = -1.0;
  int rounds_without_improvement = 0;
  int max_rounds = std::max(1, options.epochs / kEpochsPerRound);
  for (int round = 0; round < max_rounds; ++round) {
    AUTOEM_RETURN_IF_ERROR(
        model.mlp_.Fit(train.X, train.y, &train_weights));
    double dev_f1 = F1Score(dev.y, model.mlp_.Predict(dev.X));
    if (dev_f1 > best_f1) {
      best_f1 = dev_f1;
      best = model.mlp_;  // checkpoint
      rounds_without_improvement = 0;
    } else if (++rounds_without_improvement >= 3) {
      break;
    }
  }
  model.mlp_ = std::move(best);

  // Tune the decision threshold on the dev split (the balanced-weight
  // training shifts the operating point well below 0.5 on skewed data).
  std::vector<double> dev_scores = model.mlp_.PredictProba(dev.X);
  double best_threshold = 0.5;
  double best_threshold_f1 = -1.0;
  for (int t = 1; t <= 19; ++t) {
    double threshold = t / 20.0;
    std::vector<int> pred(dev_scores.size());
    for (size_t i = 0; i < dev_scores.size(); ++i) {
      pred[i] = dev_scores[i] >= threshold ? 1 : 0;
    }
    double f1 = F1Score(dev.y, pred);
    if (f1 > best_threshold_f1) {
      best_threshold_f1 = f1;
      best_threshold = threshold;
    }
  }
  model.threshold_ = best_threshold;
  return model;
}

Result<std::vector<double>> DeepMatcherModel::ScorePairs(
    const PairSet& pairs) const {
  if (num_attributes_ == 0) return Status::FailedPrecondition("not trained");
  AUTOEM_RETURN_IF_ERROR(CheckScorable(pairs, num_attributes_));
  return mlp_.PredictProba(EmbedAll(pairs));
}

Result<MatchReport> DeepMatcherModel::Evaluate(const PairSet& labeled_pairs,
                                               double threshold) const {
  if (threshold <= 0.0 || threshold >= 1.0) threshold = threshold_;
  auto scores = ScorePairs(labeled_pairs);
  if (!scores.ok()) return scores.status();
  return ReportAtThreshold(labeled_pairs, *scores, threshold);
}

}  // namespace autoem
