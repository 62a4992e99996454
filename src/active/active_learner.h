#ifndef AUTOEM_ACTIVE_ACTIVE_LEARNER_H_
#define AUTOEM_ACTIVE_ACTIVE_LEARNER_H_

#include <optional>
#include <ostream>
#include <vector>

#include "active/oracle.h"
#include "automl/automl_em.h"
#include "ml/models/random_forest.h"

namespace autoem {

/// How the active-learning batch picks its queries (paper §VII lists query
/// by committee and maximum margin as extensions; kCommittee is the
/// random-forest vote-disagreement strategy of Algorithm 1 / Fig. 7).
enum class QueryStrategy {
  kCommittee,  // lowest tree-vote agreement (the paper's default)
  kMargin,     // probability closest to 0.5 (maximum-margin uncertainty)
  kRandom,     // uniform random (the no-active-learning control)
};

/// Stable display name, e.g. "committee".
const char* QueryStrategyName(QueryStrategy strategy);

/// gtest/iostream integration.
std::ostream& operator<<(std::ostream& os, QueryStrategy strategy);

/// Knobs of AutoML-EM-Active (paper Algorithm 1 and §V-D). Setting
/// `st_batch = 0` reduces the algorithm to plain active learning
/// ("AC + AutoML-EM" in the paper's tables).
struct ActiveLearningOptions {
  size_t init_size = 500;     // |T| before the loop (paper: 30/100/500)
  size_t ac_batch = 20;       // human-labeled pairs per iteration (2/8/20)
  size_t st_batch = 200;      // machine-labeled pairs per iteration (0..200)
  size_t label_budget = 900;  // B: total human labels, including init
  int max_iterations = 20;    // paper runs 20 iterations
  /// When false, self-training ignores the class-ratio preservation of
  /// Remark (2) and just takes the most confident pairs (naive ablation).
  bool preserve_class_ratio = true;
  /// How human-label queries are chosen each iteration.
  QueryStrategy query_strategy = QueryStrategy::kCommittee;
  /// Model retrained at each iteration (paper: random forest; its vote
  /// disagreement defines confidence, Fig. 7).
  RandomForestOptions model;
  uint64_t seed = 5;
  /// One knob for the whole run: applied to the per-iteration forest (fit +
  /// confidence scoring) and propagated into the final AutoML-EM search,
  /// overriding `automl.parallelism`. Never changes which pairs are queried
  /// or the resulting model.
  Parallelism parallelism;
  /// Crash-safe checkpoint/resume of the labeling loop. A checkpoint is
  /// written after every iteration (every_n_trials is ignored here — human
  /// labels are too expensive to ever lose); resuming replays no oracle
  /// queries and reproduces the uninterrupted run bit-identically. The
  /// final AutoML-EM search has its own knob (`automl.checkpoint`).
  CheckpointOptions checkpoint;

  /// Final AutoML-EM run on the collected labels (Algorithm 1, line 13).
  AutoMlEmOptions automl;
  bool run_automl_at_end = true;
};

/// Per-iteration progress snapshot.
struct ActiveIterationStats {
  size_t iteration = 0;
  size_t human_labels = 0;    // cumulative
  size_t machine_labels = 0;  // cumulative
  double iteration_model_test_f1 = -1.0;  // -1 when no test set given
};

struct ActiveLearningResult {
  /// The final training set: features of all selected pool rows plus their
  /// (human or machine) labels.
  Dataset collected;
  /// Parallel to `collected`: true for machine-inferred labels.
  std::vector<bool> is_machine_label;
  size_t human_labels_used = 0;
  size_t machine_labels_added = 0;
  /// Fraction of machine labels that match ground truth when the caller
  /// provides `true_labels` for diagnostics; -1 otherwise.
  double machine_label_accuracy = -1.0;
  std::vector<ActiveIterationStats> iterations;
  /// Present when options.run_automl_at_end. Test it with
  /// result->model.Predict(...).
  std::optional<AutoMlEmResult> automl;
};

/// Runs AutoML-EM-Active over an unlabeled pool of featurized pairs.
///
/// `pool` supplies the feature matrix; its `y` is IGNORED (labels only flow
/// through the oracle). `test`, when non-null, is used purely for
/// per-iteration reporting. `true_labels`, when non-null, enables
/// machine-label accuracy diagnostics without spending oracle budget.
Result<ActiveLearningResult> RunAutoMlEmActive(
    const Dataset& pool, LabelingOracle* oracle,
    const ActiveLearningOptions& options, const Dataset* test = nullptr,
    const std::vector<int>* true_labels = nullptr);

}  // namespace autoem

#endif  // AUTOEM_ACTIVE_ACTIVE_LEARNER_H_
