#ifndef AUTOEM_AUTOML_SMAC_H_
#define AUTOEM_AUTOML_SMAC_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "automl/evaluator.h"
#include "automl/param_space.h"

namespace autoem {

/// Crash-safe checkpointing knobs shared by the searchers and the active
/// learner (see automl/checkpoint.h for the on-disk format).
struct CheckpointOptions {
  /// Checkpoint file path; empty disables checkpointing.
  std::string path;
  /// Trials between checkpoints (the active learner checkpoints every
  /// iteration regardless). Values < 1 behave as 1.
  int every_n_trials = 5;
  /// Resume from `path` if it exists. A missing file starts fresh (the run
  /// was killed before its first checkpoint); a corrupt or mismatched file
  /// is an error — never silently ignored.
  bool resume = false;
};

/// Shared knobs for the pipeline searchers. A search stops at whichever of
/// the two budgets is hit first (a zero budget disables that bound; at least
/// one must be set).
struct SearchOptions {
  int max_evaluations = 30;
  double max_seconds = 0.0;
  uint64_t seed = 1;
  /// When true, the first trial of the initial design is the default
  /// configuration.
  bool include_default = true;
  /// Per-trial deadline forwarded to the evaluator; <= 0 disables. A trial
  /// past the deadline is cancelled and quarantined (TrialFailure::kTimeout)
  /// without consuming the rest of the global budget.
  double max_trial_seconds = 0.0;
  CheckpointOptions checkpoint;
};

struct SearchOutcome {
  Configuration best_config;
  double best_valid_f1 = 0.0;
  std::vector<EvalRecord> trajectory;
  /// Trials quarantined by failure class (worst-score imputed, config hash
  /// blacklisted). Sums over TrialFailureName categories.
  size_t trials_failed = 0;
};

/// An `n_init` no budget reaches: the random initial design never hands
/// over to the surrogate, which is random search.
inline constexpr int kRandomSearchInit = std::numeric_limits<int>::max();

/// SMAC-specific knobs on top of the shared SearchOptions.
struct SmacOptions {
  SearchOptions base;
  /// Configurations evaluated before the random initial design — a simple
  /// meta-learning warm start (paper §VII): seed the search with pipelines
  /// that won on previous, similar datasets. Entries are Complete()d
  /// against the space, so partial configurations are fine.
  std::vector<Configuration> initial_configs;
  /// Random initial design size before the surrogate takes over (at least
  /// 2); kRandomSearchInit makes the search random search.
  int n_init = 6;
  /// Candidate pool per iteration: random samples + neighbors of the
  /// incumbent, ranked by expected improvement.
  int n_candidates = 200;
};

/// SMAC-style Bayesian optimization (paper §III-A): after a random initial
/// design (the default configuration first when `include_default` is set,
/// then uniform samples), iteratively fit a random-forest surrogate mapping
/// encoded pipelines to validation F1, rank a candidate pool by expected
/// improvement, and evaluate the most promising pipeline. Every 2nd
/// evaluation is pure random for exploration, matching SMAC's interleaving.
///
/// Trial failures are quarantined (worst-score imputation; quarantined
/// configs are skipped by the EI ranking and never re-proposed). The error
/// return is reserved for infrastructure faults — an unusable checkpoint or
/// a seed mismatch on resume.
Result<SearchOutcome> SmacSearch(const ConfigurationSpace& space,
                                 HoldoutEvaluator* evaluator,
                                 const SmacOptions& options);

/// Pure random search (the SMAC ablation baseline in bench_fig10): SMAC
/// whose initial design never ends, so every trial after the default is
/// `Propose(Sample)`.
Result<SearchOutcome> RandomSearch(const ConfigurationSpace& space,
                                   HoldoutEvaluator* evaluator,
                                   const SearchOptions& options);

}  // namespace autoem

#endif  // AUTOEM_AUTOML_SMAC_H_
