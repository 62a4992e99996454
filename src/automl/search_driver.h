#ifndef AUTOEM_AUTOML_SEARCH_DRIVER_H_
#define AUTOEM_AUTOML_SEARCH_DRIVER_H_

#include <set>
#include <string>

#include "automl/smac.h"
#include "common/rng.h"
#include "common/timer.h"

namespace autoem {

/// Fault-tolerance chassis of SmacSearch (and so of random search) and the
/// only holder of a search's state: it numbers trials, stamps their clock,
/// and keeps the trajectory, the incumbent and the quarantine, and it
/// checkpoints and resumes them. The proposal logic reads that state and
/// keeps none of its own, so a resumed run is bit-identical to an
/// uninterrupted one.
///
/// Usage:
///   SearchDriver driver(space, evaluator, options, "smac");
///   AUTOEM_RETURN_IF_ERROR(driver.Init());
///   while (driver.BudgetLeft()) {
///     driver.set_interleave_random(...);     // phase flags BEFORE Evaluate
///     driver.Evaluate(driver.Propose(candidate));
///   }
///   return driver.Finish();
class SearchDriver {
 public:
  SearchDriver(const ConfigurationSpace& space, HoldoutEvaluator* evaluator,
               const SearchOptions& options, const char* name);

  /// Sets the evaluator's per-trial deadline and, when requested, resumes
  /// from the checkpoint: restores the RNG stream, trajectory, best-so-far,
  /// quarantine set, phase flag, and elapsed clock. A missing checkpoint
  /// file starts fresh; a corrupt one or a seed mismatch is an error.
  Status Init();

  /// False once the evaluation count or the time budget (including time
  /// consumed before a resume) is exhausted.
  bool BudgetLeft() const;

  /// Trials completed so far, counting resumed history — the searchers'
  /// positional index for warm-start / initial-design phases.
  size_t trials_done() const { return outcome_.trajectory.size(); }

  /// Quarantine filter for proposals: returns `candidate` unless its config
  /// hash previously failed, in which case up to 16 fresh random samples are
  /// drawn. When nothing has failed, no extra RNG draws happen — the stream
  /// matches the pre-fault-tolerance behavior exactly.
  Configuration Propose(Configuration candidate);

  /// True when `config` is quarantined (used by SMAC's EI ranking to skip
  /// failed candidates without consuming proposal retries).
  bool IsQuarantined(const Configuration& config) const;

  /// Runs one trial: evaluate under the next trial index, stamp the search
  /// clock, quarantine on failure, update best, advance the checkpoint
  /// cadence. The record lands at the back of outcome().trajectory.
  void Evaluate(const Configuration& config);

  /// Writes a final checkpoint (when enabled) and releases the outcome.
  SearchOutcome Finish();

  Rng* rng() { return &rng_; }
  /// Trajectory (every trial, restored ones included), incumbent and
  /// failure count so far.
  const SearchOutcome& outcome() const { return outcome_; }

  /// SMAC's random-interleave phase flag, checkpointed with the rest of the
  /// state. Must be set to the *next* step's value before Evaluate so a
  /// resume continues the phase pattern correctly.
  bool interleave_random() const { return interleave_random_; }
  void set_interleave_random(bool v) { interleave_random_ = v; }

 private:
  /// Appends one trial, restored or new, to the outcome: quarantines and
  /// counts a failure, and promotes a clean trial that beats the incumbent.
  /// Failed trials carry an imputed worst score and never become the
  /// incumbent, so an all-failed search keeps best_config empty. Returns
  /// true when the trial became the incumbent.
  bool Admit(EvalRecord record);
  void MaybeCheckpoint(bool force);

  const ConfigurationSpace& space_;
  HoldoutEvaluator* evaluator_;
  const SearchOptions& options_;
  const char* name_;

  Rng rng_;
  Stopwatch timer_;
  SearchOutcome outcome_;
  std::set<uint64_t> failed_;  // sorted => deterministic checkpoint bytes
  bool interleave_random_ = false;
  double elapsed_offset_ = 0.0;  // clock consumed before resume
  int trials_since_checkpoint_ = 0;
};

}  // namespace autoem

#endif  // AUTOEM_AUTOML_SEARCH_DRIVER_H_
