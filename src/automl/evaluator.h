#ifndef AUTOEM_AUTOML_EVALUATOR_H_
#define AUTOEM_AUTOML_EVALUATOR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "automl/pipeline.h"
#include "fault/cancel.h"
#include "ml/dataset.h"

namespace autoem {

/// What one trial cost, captured around HoldoutEvaluator::Evaluate. A
/// column holds a value only when its source was on: resource probes
/// (`--resources`) for all but `profile_samples`, a running profiler for
/// that one. So "unmeasured" never reads as "free". Trials run one at a
/// time, so the process-wide counters behind allocs, profile_samples and
/// the pool split attribute cleanly to the trial that moved them.
struct TrialTelemetry {
  /// CPU burned by the search thread (CLOCK_THREAD_CPUTIME_ID). Pool
  /// workers' share shows up in pool_busy_micros instead.
  std::optional<double> cpu_seconds;
  /// Growth of the process peak RSS; nonzero pins which trial pushed it.
  std::optional<int64_t> peak_rss_delta_kb;
  /// operator-new calls across the trial (`--resources` turns on the
  /// allocation counter along with the probes).
  std::optional<uint64_t> allocs;
  /// CPU-profile samples taken while the trial ran, its pool tasks
  /// included.
  std::optional<uint64_t> profile_samples;
  /// Summed enqueue-to-dequeue delay and summed run time of the trial's
  /// thread-pool tasks.
  std::optional<uint64_t> pool_wait_micros;
  std::optional<uint64_t> pool_busy_micros;

  /// One trajectory CSV column: its header name and the cell it prints
  /// for a trial, empty when unmeasured.
  struct Column {
    const char* name;
    std::string (*cell)(const TrialTelemetry& telemetry);
  };
  /// Every telemetry column, in CSV order. A new column is a member above,
  /// an entry here and its capture in Evaluate; checkpoints never change.
  static const std::array<Column, 6> kColumns;
};

/// Why a trial was quarantined (SMAC treats failed evaluations as
/// first-class data: worst-score imputation, never re-proposed).
enum class TrialFailure : uint8_t {
  kNone = 0,       // trial completed with a finite score
  kError = 1,      // compile/fit/score returned an error or threw
  kTimeout = 2,    // per-trial deadline (SetMaxTrialSeconds)
  kNonFinite = 3,  // score came back NaN/Inf
};

/// Stable short name ("ok", "error", "timeout", "non_finite") — used for
/// metric suffixes (automl.trials_failed.<name>) and checkpoint logs.
const char* TrialFailureName(TrialFailure failure);

/// One completed pipeline evaluation.
struct EvalRecord {
  Configuration config;
  double valid_f1 = 0.0;
  double test_f1 = -1.0;  // -1 when no test set was supplied
  double fit_seconds = 0.0;
  /// 0-based index of this evaluation in the search's trajectory.
  int trial = 0;
  /// Search clock at the end of this evaluation, stamped by the search
  /// driver (0 for a standalone Evaluate). Together with `trial` this makes
  /// a trajectory a complete Fig. 3-style tuning curve (best F1 vs time)
  /// that SaveTrajectory/FormatTuningCurve can serialize without re-running
  /// the search.
  double elapsed_seconds = 0.0;
  /// kNone for a clean trial. Anything else means valid_f1 is the imputed
  /// worst score (0.0), not a measurement, and the search must quarantine
  /// this configuration.
  TrialFailure failure = TrialFailure::kNone;
  /// Human-readable cause for quarantined trials (Status message); empty on
  /// success. Not serialized into trajectories.
  std::string failure_message;
  /// What the trial cost. Measurement only: never read by the search and
  /// never checkpointed, so probes and profiling cannot change a result.
  TrialTelemetry telemetry;
};

/// Satellite guard against silent NaN propagation into the surrogate mean:
/// OK for finite scores, Status::Internal naming the offending config hash
/// otherwise.
Status ValidateTrialScore(double score, const Configuration& config);

/// One-hold-out evaluation (the paper's validation protocol, §V-A): fit the
/// candidate pipeline on `train`, score F1 on `valid`. A `test` set may be
/// attached for trajectory reporting (Fig. 10); it never influences search.
/// The evaluator keeps nothing between trials: the search driver numbers
/// them, stamps their clock and keeps the trajectory.
class HoldoutEvaluator {
 public:
  HoldoutEvaluator(Dataset train, Dataset valid);

  /// Attaches an optional test set scored alongside each evaluation.
  void SetTestSet(Dataset test) { test_ = std::move(test); has_test_ = true; }

  /// Parallelism applied to every compiled candidate pipeline (the search
  /// itself stays sequential — SMAC is inherently iterative; the win is
  /// inside each forest fit). Scores are unchanged by this setting.
  void SetParallelism(const Parallelism& parallelism) {
    parallelism_ = parallelism;
  }

  /// Cooperative wall-clock deadline per evaluation; <= 0 (the default)
  /// disables it. A trial past its deadline is cancelled (forest fits bail
  /// at the next tree/node boundary) and recorded as TrialFailure::kTimeout.
  /// Applies to subsequent Evaluate calls.
  void SetMaxTrialSeconds(double seconds) { max_trial_seconds_ = seconds; }

  /// Fits and scores one configuration. Never throws and never aborts the
  /// search: a trial that errors, exceeds its deadline, or produces a
  /// non-finite score comes back with the worst score imputed (0.0) and
  /// `failure` set, so callers can quarantine the config and continue.
  /// `trial` is the caller's index for this evaluation; the record, the
  /// `automl.pipeline_eval` span and the log lines carry it.
  EvalRecord Evaluate(const Configuration& config, int trial = 0);

 private:
  /// The fallible core of Evaluate: compile, fit under the trial deadline,
  /// score, validate finiteness. Sets record fields on success; on failure
  /// may tag record->failure (non-finite detection) and returns the error.
  Status FitAndScore(const Configuration& config, EvalRecord* record);

  Dataset train_;
  Dataset valid_;
  Dataset test_;
  Parallelism parallelism_;
  double max_trial_seconds_ = 0.0;
  bool has_test_ = false;
};

/// Stratified k-fold cross-validated F1 of one configuration — the
/// resampling alternative to one-hold-out validation (auto-sklearn offers
/// both; the paper uses holdout, §V-A). Returns the mean fold F1; folds
/// whose fit fails contribute 0. InvalidArgument for folds < 2 or datasets
/// with fewer rows than folds.
///
/// Folds are fitted concurrently under `parallelism`, each on its own
/// compiled pipeline; fold assignment is fixed by `seed` before dispatch
/// and fold scores are reduced in fold order, so the result is bit-identical
/// at any thread count.
Result<double> CrossValidatedF1(const Configuration& config,
                                const Dataset& data, int folds,
                                uint64_t seed,
                                const Parallelism& parallelism = {});

}  // namespace autoem

#endif  // AUTOEM_AUTOML_EVALUATOR_H_
