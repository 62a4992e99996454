#include "automl/search_driver.h"

#include <sstream>
#include <utility>

#include "automl/checkpoint.h"
#include "automl/config_io.h"
#include "obs/obs.h"

namespace autoem {

SearchDriver::SearchDriver(const ConfigurationSpace& space,
                           HoldoutEvaluator* evaluator,
                           const SearchOptions& options, const char* name)
    : space_(space), evaluator_(evaluator), options_(options), name_(name),
      rng_(options.seed) {}

Status SearchDriver::Init() {
  evaluator_->SetMaxTrialSeconds(options_.max_trial_seconds);

  const CheckpointOptions& ckpt = options_.checkpoint;
  if (ckpt.path.empty() || !ckpt.resume) return Status::OK();

  auto loaded = LoadSearchCheckpoint(ckpt.path);
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      // Killed before the first checkpoint (or never started): start fresh.
      AUTOEM_LOG(INFO) << name_ << ": no checkpoint at " << ckpt.path
                       << ", starting fresh";
      return Status::OK();
    }
    return loaded.status();
  }
  SearchCheckpoint& state = *loaded;
  if (state.seed != options_.seed) {
    return Status::InvalidArgument(
        "checkpoint seed " + std::to_string(state.seed) +
        " does not match search seed " + std::to_string(options_.seed) +
        "; refusing to resume a different run");
  }
  {
    std::istringstream in(state.rng_state);
    in >> rng_.engine();
    if (in.fail()) {
      return Status::InvalidArgument("checkpoint: unreadable RNG state");
    }
  }
  elapsed_offset_ = state.elapsed_seconds;
  for (EvalRecord& record : state.history) Admit(std::move(record));
  AUTOEM_LOG(INFO) << name_ << ": resumed " << outcome_.trajectory.size()
                   << " trials from " << ckpt.path
                   << " (best valid_f1=" << outcome_.best_valid_f1 << ")";
  return Status::OK();
}

bool SearchDriver::BudgetLeft() const {
  if (options_.max_evaluations > 0 &&
      outcome_.trajectory.size() >=
          static_cast<size_t>(options_.max_evaluations)) {
    return false;
  }
  if (options_.max_seconds > 0.0 &&
      elapsed_offset_ + timer_.ElapsedSeconds() >= options_.max_seconds) {
    return false;
  }
  return true;
}

bool SearchDriver::IsQuarantined(const Configuration& config) const {
  return !failed_.empty() && failed_.count(ConfigurationHash(config)) > 0;
}

Configuration SearchDriver::Propose(Configuration candidate) {
  // Bounded rejection: a quarantined proposal is replaced by fresh random
  // samples. The empty-set fast path draws nothing, keeping the RNG stream
  // byte-compatible with runs that never saw a failure.
  for (int attempt = 0; attempt < 16 && IsQuarantined(candidate); ++attempt) {
    candidate = space_.Sample(&rng_);
  }
  return candidate;
}

bool SearchDriver::Admit(EvalRecord record) {
  const bool failed = record.failure != TrialFailure::kNone;
  if (failed) {
    failed_.insert(ConfigurationHash(record.config));
    ++outcome_.trials_failed;
  }
  const bool best = !failed && (outcome_.best_config.empty() ||
                                record.valid_f1 > outcome_.best_valid_f1);
  if (best) {
    outcome_.best_valid_f1 = record.valid_f1;
    outcome_.best_config = record.config;
  }
  outcome_.trajectory.push_back(std::move(record));
  return best;
}

void SearchDriver::Evaluate(const Configuration& config) {
  static obs::Gauge* best_gauge =
      obs::MetricsRegistry::Global().GetGauge("automl.best_valid_f1");
  EvalRecord record =
      evaluator_->Evaluate(config, static_cast<int>(trials_done()));
  record.elapsed_seconds = elapsed_offset_ + timer_.ElapsedSeconds();
  if (Admit(std::move(record))) {
    AUTOEM_LOG(INFO) << name_ << ": new best valid_f1="
                     << outcome_.best_valid_f1 << " at trial "
                     << outcome_.trajectory.back().trial;
  }
  best_gauge->Set(outcome_.best_valid_f1);
  ++trials_since_checkpoint_;
  MaybeCheckpoint(/*force=*/false);
}

void SearchDriver::MaybeCheckpoint(bool force) {
  const CheckpointOptions& ckpt = options_.checkpoint;
  if (ckpt.path.empty()) return;
  int every = ckpt.every_n_trials < 1 ? 1 : ckpt.every_n_trials;
  if (!force && trials_since_checkpoint_ < every) return;

  SearchCheckpoint state;
  state.seed = options_.seed;
  {
    std::ostringstream out;
    out << rng_.engine();
    state.rng_state = out.str();
  }
  state.elapsed_seconds = elapsed_offset_ + timer_.ElapsedSeconds();
  state.history = outcome_.trajectory;
  Status st = SaveSearchCheckpoint(state, ckpt.path);
  if (st.ok()) {
    trials_since_checkpoint_ = 0;
  } else {
    // A failed checkpoint write degrades resume granularity but must not
    // kill a healthy search.
    static obs::Counter* write_failed =
        obs::MetricsRegistry::Global().GetCounter(
            "automl.checkpoint_write_failed");
    write_failed->Add();
    AUTOEM_LOG(WARN) << name_ << ": checkpoint write to " << ckpt.path
                     << " failed: " << st.ToString();
  }
}

SearchOutcome SearchDriver::Finish() {
  MaybeCheckpoint(/*force=*/true);
  return std::move(outcome_);
}

}  // namespace autoem
