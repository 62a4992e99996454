#include "automl/evaluator.h"

#include <cinttypes>
#include <cmath>
#include <exception>
#include <new>

#include "automl/config_io.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "fault/failpoint.h"
#include "ml/metrics.h"
#include "obs/obs.h"

namespace autoem {

namespace {

/// A telemetry value in the trajectory CSV's printf format.
std::string Format(double value) { return StrFormat("%.6f", value); }
std::string Format(int64_t value) { return StrFormat("%" PRId64, value); }
std::string Format(uint64_t value) { return StrFormat("%" PRIu64, value); }

/// The CSV cell of one telemetry member: empty when unmeasured.
template <auto kMember>
std::string Cell(const TrialTelemetry& telemetry) {
  const auto& value = telemetry.*kMember;
  return value ? Format(*value) : std::string();
}

/// Growth of a monotone counter across a trial; 0 if it restarted (a new
/// profiling session resets the sample count).
uint64_t Growth(uint64_t before, uint64_t after) {
  return after > before ? after - before : 0;
}

}  // namespace

const std::array<TrialTelemetry::Column, 6> TrialTelemetry::kColumns = {{
    {"cpu_seconds", Cell<&TrialTelemetry::cpu_seconds>},
    {"peak_rss_delta_kb", Cell<&TrialTelemetry::peak_rss_delta_kb>},
    {"allocs", Cell<&TrialTelemetry::allocs>},
    {"profile_samples", Cell<&TrialTelemetry::profile_samples>},
    {"pool_wait_micros", Cell<&TrialTelemetry::pool_wait_micros>},
    {"pool_busy_micros", Cell<&TrialTelemetry::pool_busy_micros>},
}};

const char* TrialFailureName(TrialFailure failure) {
  switch (failure) {
    case TrialFailure::kNone:
      return "ok";
    case TrialFailure::kError:
      return "error";
    case TrialFailure::kTimeout:
      return "timeout";
    case TrialFailure::kNonFinite:
      return "non_finite";
  }
  return "unknown";
}

Status ValidateTrialScore(double score, const Configuration& config) {
  if (std::isfinite(score)) return Status::OK();
  return Status::Internal(
      "non-finite score " + std::to_string(score) + " for config hash " +
      std::to_string(ConfigurationHash(config)));
}

HoldoutEvaluator::HoldoutEvaluator(Dataset train, Dataset valid)
    : train_(std::move(train)), valid_(std::move(valid)) {}

Status HoldoutEvaluator::FitAndScore(const Configuration& config,
                                     EvalRecord* record) {
  // The library itself reports failures through Status, but a pathological
  // configuration can still blow memory inside the STL (and the bad_alloc
  // failpoint simulates exactly that); catch here so one trial's OOM becomes
  // a quarantined record, not a dead search.
  try {
    AUTOEM_FAILPOINT("evaluator.fit");
    auto compiled = EmPipeline::Compile(config);
    AUTOEM_RETURN_IF_ERROR(compiled.status());
    EmPipeline& pipeline = *compiled;
    pipeline.SetParallelism(parallelism_);

    fault::CancelToken cancel;
    if (max_trial_seconds_ > 0.0) {
      cancel = fault::CancelToken::WithDeadline(max_trial_seconds_);
      pipeline.SetCancelToken(cancel);
    }

    AUTOEM_RETURN_IF_ERROR(pipeline.Fit(train_));
    AUTOEM_FAILPOINT("evaluator.score");
    AUTOEM_RETURN_IF_ERROR(cancel.Check("evaluator.score"));
    double valid_f1 = F1Score(valid_.y, pipeline.Predict(valid_.X));
    Status finite = ValidateTrialScore(valid_f1, config);
    if (!finite.ok()) {
      record->failure = TrialFailure::kNonFinite;
      return finite;
    }
    record->valid_f1 = valid_f1;
    if (has_test_) {
      double test_f1 = F1Score(test_.y, pipeline.Predict(test_.X));
      record->test_f1 = std::isfinite(test_f1) ? test_f1 : -1.0;
    }
  } catch (const std::bad_alloc&) {
    return Status::Internal("out of memory evaluating config hash " +
                            std::to_string(ConfigurationHash(config)));
  } catch (const std::exception& e) {
    return Status::Internal("exception evaluating config hash " +
                            std::to_string(ConfigurationHash(config)) + ": " +
                            e.what());
  }
  return Status::OK();
}

EvalRecord HoldoutEvaluator::Evaluate(const Configuration& config,
                                      int trial) {
  static obs::Counter* trials =
      obs::MetricsRegistry::Global().GetCounter("automl.trials");
  static obs::Counter* failed_error =
      obs::MetricsRegistry::Global().GetCounter("automl.trials_failed.error");
  static obs::Counter* failed_timeout =
      obs::MetricsRegistry::Global().GetCounter("automl.trials_failed.timeout");
  static obs::Counter* failed_non_finite =
      obs::MetricsRegistry::Global().GetCounter(
          "automl.trials_failed.non_finite");
  static obs::Histogram* eval_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.pipeline_eval_ms");
  static obs::Histogram* trial_cpu_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.trial_cpu_ms");
  static obs::Counter* pool_wait =
      obs::MetricsRegistry::Global().GetCounter("threadpool.wait_micros");
  static obs::Counter* pool_busy =
      obs::MetricsRegistry::Global().GetCounter("threadpool.busy_micros");
  obs::Span span("automl.pipeline_eval");
  // Telemetry: snapshot each source that is on here, take the deltas after
  // the trial. Trials run serially, so process-wide deltas are this trial's.
  const bool probed = obs::ResourceProbesEnabled();
  const bool profiled = obs::ProfilingEnabled();
  obs::ResourceProbe probe(probed);
  const uint64_t wait_before = probed ? pool_wait->Total() : 0;
  const uint64_t busy_before = probed ? pool_busy->Total() : 0;
  const uint64_t samples_before = profiled ? obs::ProfileSampleCount() : 0;

  EvalRecord record;
  record.config = config;
  record.trial = trial;

  Stopwatch timer;
  Status st = FitAndScore(config, &record);
  if (!st.ok()) {
    // Quarantine: impute the worst score so the surrogate learns this region
    // is bad, and classify the failure so the search never re-proposes it.
    record.valid_f1 = 0.0;
    record.test_f1 = -1.0;
    if (record.failure == TrialFailure::kNone) {
      record.failure = st.code() == StatusCode::kDeadlineExceeded
                           ? TrialFailure::kTimeout
                           : TrialFailure::kError;
    }
    record.failure_message = st.ToString();
    switch (record.failure) {
      case TrialFailure::kTimeout:
        failed_timeout->Add();
        break;
      case TrialFailure::kNonFinite:
        failed_non_finite->Add();
        break;
      default:
        failed_error->Add();
        break;
    }
    AUTOEM_LOG(WARN) << "trial " << record.trial << " quarantined ("
                     << TrialFailureName(record.failure)
                     << "): " << record.failure_message;
  }
  record.fit_seconds = timer.ElapsedSeconds();
  TrialTelemetry& telemetry = record.telemetry;
  if (probed) {
    obs::ResourceUsage used = probe.Take();
    telemetry.cpu_seconds = used.cpu_seconds;
    telemetry.peak_rss_delta_kb = used.peak_rss_delta_kb;
    telemetry.allocs = used.allocs;
    telemetry.pool_wait_micros = Growth(wait_before, pool_wait->Total());
    telemetry.pool_busy_micros = Growth(busy_before, pool_busy->Total());
  }
  if (profiled) {
    telemetry.profile_samples =
        Growth(samples_before, obs::ProfileSampleCount());
  }

  trials->Add();
  eval_ms->Observe(record.fit_seconds * 1000.0);
  if (probed) trial_cpu_ms->Observe(*telemetry.cpu_seconds * 1000.0);
  if (span.active()) {
    span.Arg("trial", record.trial);
    span.Arg("config_hash", ConfigurationHash(config));
    span.Arg("valid_f1", record.valid_f1);
    span.Arg("fit_ms", record.fit_seconds * 1000.0);
    span.Arg("failure", TrialFailureName(record.failure));
    if (probed) {
      span.Arg("cpu_ms", *telemetry.cpu_seconds * 1000.0);
      span.Arg("rss_delta_kb", *telemetry.peak_rss_delta_kb);
      span.Arg("allocs", *telemetry.allocs);
      span.Arg("pool_wait_us", *telemetry.pool_wait_micros);
      span.Arg("pool_busy_us", *telemetry.pool_busy_micros);
    }
    if (telemetry.profile_samples.value_or(0) > 0) {
      span.Arg("profile_samples", *telemetry.profile_samples);
    }
  }
  AUTOEM_LOG(DEBUG) << "trial " << record.trial << " valid_f1="
                    << record.valid_f1 << " fit_s=" << record.fit_seconds;
  return record;
}

Result<double> CrossValidatedF1(const Configuration& config,
                                const Dataset& data, int folds,
                                uint64_t seed,
                                const Parallelism& parallelism) {
  if (folds < 2) return Status::InvalidArgument("folds must be >= 2");
  if (data.size() < static_cast<size_t>(folds)) {
    return Status::InvalidArgument("fewer rows than folds");
  }
  // Stratified fold assignment: spread each class round-robin over folds.
  Rng rng(seed);
  std::vector<size_t> pos;
  std::vector<size_t> neg;
  for (size_t i = 0; i < data.size(); ++i) {
    (data.y[i] == 1 ? pos : neg).push_back(i);
  }
  rng.Shuffle(&pos);
  rng.Shuffle(&neg);
  std::vector<int> fold_of(data.size(), 0);
  for (size_t k = 0; k < pos.size(); ++k) {
    fold_of[pos[k]] = static_cast<int>(k % folds);
  }
  for (size_t k = 0; k < neg.size(); ++k) {
    fold_of[neg[k]] = static_cast<int>(k % folds);
  }

  // The configuration either compiles for every fold or for none; validate
  // once up front so the parallel loop below cannot fail.
  AUTOEM_RETURN_IF_ERROR(EmPipeline::Compile(config).status());

  // Fold assignment is fixed above, before any fitting, and each fold gets
  // its own freshly compiled pipeline — folds share nothing mutable, and
  // reducing fold scores in fold order keeps the mean bit-identical at any
  // thread count.
  static obs::Counter* cv_folds =
      obs::MetricsRegistry::Global().GetCounter("automl.cv_folds");
  static obs::Histogram* cv_fold_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.cv_fold_ms");
  static obs::Histogram* cv_fold_cpu_ms =
      obs::MetricsRegistry::Global().GetHistogram("automl.cv_fold_cpu_ms");
  obs::Span cv_span("automl.cv");
  if (cv_span.active()) {
    cv_span.Arg("folds", folds);
    cv_span.Arg("rows", data.size());
  }
  std::vector<double> fold_f1(folds, 0.0);
  ParallelFor(parallelism, static_cast<size_t>(folds), [&](size_t fold) {
    obs::Span fold_span("automl.cv_fold");
    if (fold_span.active()) fold_span.Arg("fold", fold);
    obs::ResourceProbe fold_probe;
    Stopwatch fold_timer;
    std::vector<size_t> train_idx;
    std::vector<size_t> valid_idx;
    for (size_t i = 0; i < data.size(); ++i) {
      (fold_of[i] == static_cast<int>(fold) ? valid_idx : train_idx)
          .push_back(i);
    }
    if (valid_idx.empty() || train_idx.empty()) return;
    Dataset train = data.SelectRows(train_idx);
    Dataset valid = data.SelectRows(valid_idx);
    auto pipeline = EmPipeline::Compile(config);
    if (!pipeline.ok()) return;  // cannot happen: validated above
    pipeline->SetParallelism(parallelism);
    bool fit_ok = pipeline->Fit(train).ok();
    if (fit_ok) {
      fold_f1[fold] = F1Score(valid.y, pipeline->Predict(valid.X));
    }
    cv_folds->Add();
    cv_fold_ms->Observe(fold_timer.ElapsedMillis());
    if (fold_probe.active()) {
      obs::ResourceUsage used = fold_probe.Take();
      cv_fold_cpu_ms->Observe(used.cpu_seconds * 1000.0);
      if (fold_span.active()) {
        fold_span.Arg("cpu_ms", used.cpu_seconds * 1000.0);
        fold_span.Arg("allocs", used.allocs);
      }
    }
    if (fold_span.active()) fold_span.Arg("f1", fold_f1[fold]);
  });

  double total_f1 = 0.0;
  for (double f1 : fold_f1) total_f1 += f1;
  return total_f1 / folds;
}

}  // namespace autoem
