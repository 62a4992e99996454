#ifndef AUTOEM_EM_MATCHER_H_
#define AUTOEM_EM_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "automl/automl_em.h"
#include "features/feature_gen.h"
#include "table/table.h"

namespace autoem {

/// Quality report for a fitted matcher on a labeled pair set.
struct MatchReport {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  size_t num_pairs = 0;
  size_t num_positives = 0;
};

/// Precision/recall/F1 of `scores` (scores[i] belongs to
/// labeled_pairs.pairs[i]) called a match at `threshold` or above — the one
/// report every matcher's Evaluate returns.
MatchReport ReportAtThreshold(const PairSet& labeled_pairs,
                              const std::vector<double>& scores,
                              double threshold);

/// InvalidArgument when a pair id is out of range for its table. Every
/// matcher featurizes or embeds cells by pair id without bounds checks, so
/// each entry point that takes pairs checks them first.
Status CheckPairIds(const PairSet& pairs);

/// InvalidArgument unless both tables share one schema of at least
/// `min_attributes` attributes (and at least one), then CheckPairIds: what
/// scoring needs before it reads a cell.
Status CheckScorable(const PairSet& pairs, size_t min_attributes);

/// CheckScorable for the attributes `generator`'s feature plan reads.
Status CheckScorable(const PairSet& pairs, const FeatureGenerator& generator);

/// End-to-end entity matcher: wraps feature generation + an AutoML-EM
/// searched pipeline behind a train-once / predict-pairs API. This is the
/// object a downstream application holds.
class EntityMatcher {
 public:
  struct Options {
    /// "automl_em" (Table II) or "magellan" (Table I).
    std::string feature_generator = "automl_em";
    /// `automl.parallelism` also drives featurization of the training and
    /// candidate pairs (the `--threads` flag of autoem_cli lands here).
    AutoMlEmOptions automl;
  };

  /// Trains on labeled candidate pairs.
  static Result<EntityMatcher> Train(const PairSet& labeled_pairs,
                                     const Options& options);

  /// P(match) for each candidate pair, the one scoring path: the per-table
  /// token caches are built once (FeatureGenerator::Prepare), then the pairs
  /// are featurized and scored in chunks of `chunk_size` on the thread pool,
  /// so peak memory is one chunk's feature matrix. A pair's score depends
  /// only on its two records: not on the chunk size, the thread count, or
  /// where the records and the pair sit in their tables and list.
  /// InvalidArgument when the two tables' schemas differ, when they are
  /// narrower than the feature plan, or when a pair id is out of range.
  /// Emits `predict.pairs_scored` / `predict.chunks` counters and a
  /// `predict.chunk` span per chunk.
  Result<std::vector<double>> ScorePairs(const PairSet& pairs,
                                         size_t chunk_size = 4096) const;

  /// Same as ScorePairs; kept because bench_e2e/ calls it by name.
  Result<std::vector<double>> ScorePairsBatched(const PairSet& pairs,
                                                size_t chunk_size = 4096) const {
    return ScorePairs(pairs, chunk_size);
  }

  /// Precision/recall/F1 on labeled pairs.
  Result<MatchReport> Evaluate(const PairSet& labeled_pairs,
                               double threshold = 0.5) const;

  /// The searched configuration (Fig. 11-style dump via
  /// automl_result().BestPipelineString()).
  const AutoMlEmResult& automl_result() const { return automl_; }
  const FeatureGenerator& feature_generator() const { return *generator_; }

  /// Featurization + model parallelism for subsequent ScorePairs calls
  /// (what `autoem_cli predict --threads` lands on after LoadModel).
  /// Results are bit-identical at any setting.
  void SetParallelism(const Parallelism& parallelism) {
    generator_->set_parallelism(parallelism);
    automl_.model.SetParallelism(parallelism);
  }

  /// Reassembles a matcher from persisted parts — the LoadModel
  /// (src/io/model_io.h) constructor. The generator must carry a loaded
  /// feature plan and `automl.model` a loaded fitted pipeline.
  static EntityMatcher FromFitted(std::unique_ptr<FeatureGenerator> generator,
                                  AutoMlEmResult automl) {
    return EntityMatcher(std::move(generator), std::move(automl));
  }

 private:
  EntityMatcher(std::unique_ptr<FeatureGenerator> generator,
                AutoMlEmResult automl)
      : generator_(std::move(generator)), automl_(std::move(automl)) {}

  std::unique_ptr<FeatureGenerator> generator_;
  AutoMlEmResult automl_;
};

}  // namespace autoem

#endif  // AUTOEM_EM_MATCHER_H_
