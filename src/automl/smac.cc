#include "automl/smac.h"

#include <algorithm>
#include <utility>

#include "automl/config_io.h"
#include "automl/search_driver.h"
#include "automl/search_space.h"
#include "automl/surrogate.h"
#include "common/timer.h"
#include "obs/obs.h"

namespace autoem {

namespace {

/// Fraction of each candidate pool drawn as neighbors of the incumbent; the
/// rest are uniform random samples, SMAC's random interleaving.
constexpr double kNeighborFraction = 0.5;

/// Fits `surrogate` on the driver's trajectory: each trial's encoded
/// configuration against its validation F1. Quarantined trials keep their
/// imputed worst score, so the surrogate learns to avoid their region
/// rather than forget it.
Status FitSurrogate(const ConfigurationSpace& space,
                    const std::vector<EvalRecord>& trajectory,
                    SurrogateForest* surrogate) {
  Matrix X;
  std::vector<double> scores;
  scores.reserve(trajectory.size());
  for (size_t r = 0; r < trajectory.size(); ++r) {
    std::vector<double> encoded = space.Encode(trajectory[r].config);
    if (r == 0) X = Matrix(trajectory.size(), encoded.size());
    std::copy(encoded.begin(), encoded.end(), X.RowPtr(r));
    scores.push_back(trajectory[r].valid_f1);
  }
  return surrogate->Fit(X, scores);
}

}  // namespace

Result<SearchOutcome> SmacSearch(const ConfigurationSpace& space,
                                 HoldoutEvaluator* evaluator,
                                 const SmacOptions& options) {
  const SearchOptions& base = options.base;
  if (base.max_evaluations <= 0 && base.max_seconds <= 0.0) {
    return Status::InvalidArgument(
        "search needs an evaluation or time budget");
  }
  SearchDriver driver(
      space, evaluator, base,
      options.n_init == kRandomSearchInit ? "random_search" : "smac");
  AUTOEM_RETURN_IF_ERROR(driver.Init());
  Rng& rng = *driver.rng();

  const size_t n_warm = options.initial_configs.size();
  const size_t n_init = static_cast<size_t>(std::max(options.n_init, 2));

  // The loop is positional in trials_done() so a resumed run re-enters the
  // correct phase directly: skipped phases' RNG draws are already reflected
  // in the restored stream.
  while (driver.BudgetLeft()) {
    const size_t t = driver.trials_done();

    // ---- warm start: caller-provided configurations first ----
    if (t < n_warm) {
      driver.Evaluate(
          driver.Propose(space.Complete(options.initial_configs[t], &rng)));
      continue;
    }

    // ---- initial design: default + random samples ----
    if (t < n_warm + n_init) {
      const size_t i = t - n_warm;
      driver.Evaluate(
          (i == 0 && base.include_default)
              ? space.Complete(DefaultEmConfiguration(ModelSpace::kAllModels),
                               &rng)
              : driver.Propose(space.Sample(&rng)));
      continue;
    }

    // ---- surrogate-guided loop ----
    if ((t - n_warm - n_init) % 2 == 1) {
      // SMAC's random interleaving step, every other trial, keeps the
      // search from collapsing onto the surrogate's blind spots.
      obs::Span span("smac.random_interleave");
      driver.Evaluate(driver.Propose(space.Sample(&rng)));
      continue;
    }

    // Registered here, not at entry: random search never fits a surrogate
    // and so never allocates these instruments.
    static obs::Histogram* surrogate_fit_ms =
        obs::MetricsRegistry::Global().GetHistogram("automl.surrogate_fit_ms");
    static obs::Histogram* ei_rank_ms =
        obs::MetricsRegistry::Global().GetHistogram("automl.ei_rank_ms");
    obs::Span trial_span("smac.trial");

    Stopwatch fit_timer;
    SurrogateForest surrogate(rng.engine()());
    bool surrogate_ok;
    {
      obs::Span fit_span("smac.surrogate_fit");
      if (fit_span.active()) fit_span.Arg("history", driver.trials_done());
      surrogate_ok =
          FitSurrogate(space, driver.outcome().trajectory, &surrogate).ok();
    }
    double fit_ms = fit_timer.ElapsedMillis();
    surrogate_fit_ms->Observe(fit_ms);
    if (!surrogate_ok) {
      driver.Evaluate(driver.Propose(space.Sample(&rng)));
      continue;
    }

    // Build the candidate pool and rank by expected improvement.
    // Quarantined configurations are excluded here (hash lookups consume no
    // RNG), so a failed pipeline is never re-proposed by the surrogate.
    Stopwatch rank_timer;
    Configuration best_candidate;
    double best_ei = -1.0;
    {
      obs::Span rank_span("smac.ei_rank");
      if (rank_span.active()) {
        rank_span.Arg("candidates", options.n_candidates);
      }
      int n_neighbors =
          static_cast<int>(options.n_candidates * kNeighborFraction);
      const Configuration& incumbent = driver.outcome().best_config;
      for (int k = 0; k < options.n_candidates; ++k) {
        Configuration candidate = k < n_neighbors
                                      ? space.Neighbor(incumbent, &rng)
                                      : space.Sample(&rng);
        if (driver.IsQuarantined(candidate)) continue;
        double mean = 0.0, variance = 0.0;
        surrogate.PredictMeanVar(space.Encode(candidate), &mean, &variance);
        double ei = ExpectedImprovement(mean, variance,
                                        driver.outcome().best_valid_f1);
        if (ei > best_ei) {
          best_ei = ei;
          best_candidate = std::move(candidate);
        }
      }
    }
    double rank_ms = rank_timer.ElapsedMillis();
    ei_rank_ms->Observe(rank_ms);
    if (best_candidate.empty()) {
      // Every candidate was quarantined — fall back to exploration.
      best_candidate = driver.Propose(space.Sample(&rng));
    }
    if (trial_span.active()) {
      trial_span.Arg("surrogate_fit_ms", fit_ms);
      trial_span.Arg("ei_rank_ms", rank_ms);
      trial_span.Arg("best_ei", best_ei);
      trial_span.Arg("config_hash", ConfigurationHash(best_candidate));
    }
    driver.Evaluate(best_candidate);
  }
  return driver.Finish();
}

Result<SearchOutcome> RandomSearch(const ConfigurationSpace& space,
                                   HoldoutEvaluator* evaluator,
                                   const SearchOptions& options) {
  SmacOptions random;
  random.base = options;
  random.n_init = kRandomSearchInit;
  return SmacSearch(space, evaluator, random);
}

}  // namespace autoem
