#ifndef AUTOEM_BASELINES_DEEP_MATCHER_H_
#define AUTOEM_BASELINES_DEEP_MATCHER_H_

#include <string>
#include <vector>

#include "em/matcher.h"
#include "ml/models/mlp.h"
#include "table/table.h"

namespace autoem {

/// Laptop-scale stand-in for DeepMatcher (paper §V-B): instead of hand
/// similarity features, each attribute value is embedded by hashing-trick
/// token embeddings (word + 3-gram buckets, signed average pooling); the
/// left/right embeddings are composed as [|u - v|, u ⊙ v] per attribute and
/// fed to an MLP trained with Adam. This exercises the same code path as
/// the original (learned representations over raw text) without
/// fastText/RNNs; DESIGN.md documents the substitution.
class DeepMatcherModel {
 public:
  struct Options {
    int embedding_dim = 64;   // per token family (word / 3-gram)
    int hidden_size = 48;
    int epochs = 150;  // upper bound; early stopping picks the best round
    double learning_rate = 1e-3;
    double l2 = 2e-3;  // memorization control; the stand-in has no dropout
    uint64_t seed = 17;
  };

  static Result<DeepMatcherModel> Train(const PairSet& labeled_pairs,
                                        const Options& options);

  Result<std::vector<double>> ScorePairs(const PairSet& pairs) const;

  /// Evaluates with the dev-tuned decision threshold by default; pass an
  /// explicit threshold in (0, 1) to override.
  Result<MatchReport> Evaluate(const PairSet& labeled_pairs,
                               double threshold = -1.0) const;

  /// Decision threshold selected on the dev split during training.
  double tuned_threshold() const { return threshold_; }

  /// Width of the composed representation fed to the MLP.
  size_t representation_dim() const;

 private:
  DeepMatcherModel() = default;

  /// Embeds one record pair into the composed representation.
  std::vector<double> Embed(const Record& left, const Record& right) const;
  Matrix EmbedAll(const PairSet& pairs) const;

  Options options_;
  size_t num_attributes_ = 0;
  double threshold_ = 0.5;
  MlpClassifier mlp_;
};

}  // namespace autoem

#endif  // AUTOEM_BASELINES_DEEP_MATCHER_H_
