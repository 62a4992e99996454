#include "active/active_learner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>

#include "active/active_checkpoint.h"
#include "ml/metrics.h"
#include "obs/obs.h"

namespace autoem {

const char* QueryStrategyName(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kCommittee:
      return "committee";
    case QueryStrategy::kMargin:
      return "margin";
    case QueryStrategy::kRandom:
      return "random";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, QueryStrategy strategy) {
  return os << QueryStrategyName(strategy);
}

namespace {

// Human labels among `labeled`; the others are machine labels.
size_t HumanLabels(const std::vector<ActiveLabeledRow>& labeled) {
  return static_cast<size_t>(
      std::count_if(labeled.begin(), labeled.end(),
                    [](const ActiveLabeledRow& r) { return !r.machine; }));
}

std::vector<size_t> PoolIndices(const std::vector<ActiveLabeledRow>& rows) {
  std::vector<size_t> idx;
  idx.reserve(rows.size());
  for (const auto& r : rows) idx.push_back(r.pool_index);
  return idx;
}

Dataset BuildDataset(const Dataset& pool,
                     const std::vector<ActiveLabeledRow>& rows) {
  Dataset out = pool.SelectRows(PoolIndices(rows));
  for (size_t i = 0; i < rows.size(); ++i) out.y[i] = rows[i].label;
  return out;
}

// Fits the iteration model on the labeled rows. The pool may contain NaN,
// and the iteration model is a plain RF, which handles NaN natively — no
// pipeline needed. (Kept unweighted, as in the paper's Algorithm 1: class
// weighting here inflates confidence on borderline positives and poisons
// self-training.) The labeled rows are pool rows, so their split ranks are
// derived from the pool's instead of sorted again; `pool_ranks` is null
// only for Extra-Trees, which never scans.
Status FitIterationModel(RandomForestClassifier* model, const Dataset& pool,
                         const FeatureRanks* pool_ranks,
                         const std::vector<ActiveLabeledRow>& labeled) {
  const Dataset data = BuildDataset(pool, labeled);
  if (pool_ranks == nullptr) return model->Fit(data.X, data.y);
  return model->Fit(data.X, FeatureRanks(*pool_ranks, PoolIndices(labeled)),
                    data.y, nullptr);
}

// Checks a loaded checkpoint against this run before the session adopts
// it: the seed must match, the RNG text must parse (into `rng`), the stats
// must number the completed iterations 0..n-1 (the last one is where the
// loop resumes), and every pool index must lie inside `pool_size`.
Status ValidateCheckpoint(const ActiveCheckpoint& state, uint64_t seed,
                          size_t pool_size, Rng* rng) {
  if (state.seed != seed) {
    return Status::InvalidArgument(
        "checkpoint seed " + std::to_string(state.seed) +
        " does not match run seed " + std::to_string(seed) +
        "; refusing to resume a different run");
  }
  std::istringstream in(state.rng_state);
  in >> rng->engine();
  if (in.fail()) {
    return Status::InvalidArgument("checkpoint: unreadable RNG state");
  }
  if (state.stats.empty()) {
    return Status::InvalidArgument("checkpoint: no completed iteration");
  }
  for (size_t i = 0; i < state.stats.size(); ++i) {
    if (state.stats[i].iteration != i) {
      return Status::InvalidArgument(
          "checkpoint: iteration stats not numbered 0.." +
          std::to_string(state.stats.size() - 1));
    }
  }
  for (const ActiveLabeledRow& row : state.labeled) {
    if (row.pool_index >= pool_size) {
      return Status::InvalidArgument(
          "checkpoint does not match this pool (row index out of range)");
    }
  }
  for (size_t idx : state.unlabeled) {
    if (idx >= pool_size) {
      return Status::InvalidArgument(
          "checkpoint does not match this pool (pool index out of range)");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ActiveLearningResult> RunAutoMlEmActive(
    const Dataset& pool, LabelingOracle* oracle,
    const ActiveLearningOptions& options, const Dataset* test,
    const std::vector<int>* true_labels) {
  if (pool.size() == 0) return Status::InvalidArgument("empty pool");
  if (options.init_size == 0) {
    return Status::InvalidArgument("init_size must be positive");
  }
  // The budget counts the initial sample: a larger sample would spend more
  // human labels than it allows before the loop could stop.
  if (options.init_size > options.label_budget) {
    return Status::InvalidArgument(
        "init_size " + std::to_string(options.init_size) +
        " exceeds label_budget " + std::to_string(options.label_budget));
  }
  if (oracle == nullptr) return Status::InvalidArgument("null oracle");

  static obs::Counter* oracle_labels =
      obs::MetricsRegistry::Global().GetCounter("active.oracle_labels");
  static obs::Counter* self_train_labels =
      obs::MetricsRegistry::Global().GetCounter("active.self_train_labels");
  static obs::Gauge* positive_ratio =
      obs::MetricsRegistry::Global().GetGauge("active.positive_ratio");
  static obs::Gauge* pool_remaining =
      obs::MetricsRegistry::Global().GetGauge("active.pool_remaining");
  obs::Span run_span("active.run");
  if (run_span.active()) {
    run_span.Arg("pool", pool.size());
    run_span.Arg("label_budget", options.label_budget);
    run_span.Arg("max_iterations", options.max_iterations);
  }

  Rng rng(options.seed);
  // The session's whole state: resumed from the checkpoint or built fresh,
  // updated in place by the loop, and saved as is after every iteration.
  ActiveCheckpoint state;
  bool resumed = false;

  const CheckpointOptions& ckpt = options.checkpoint;
  if (!ckpt.path.empty() && ckpt.resume) {
    auto loaded = LoadActiveCheckpoint(ckpt.path);
    if (!loaded.ok()) {
      if (loaded.status().code() != StatusCode::kNotFound) {
        return loaded.status();
      }
      // Killed before the first checkpoint: start fresh.
      AUTOEM_LOG(INFO) << "active: no checkpoint at " << ckpt.path
                       << ", starting fresh";
    } else {
      AUTOEM_RETURN_IF_ERROR(
          ValidateCheckpoint(*loaded, options.seed, pool.size(), &rng));
      state = std::move(*loaded);
      resumed = true;
      AUTOEM_LOG(INFO) << "active: resumed iteration "
                       << state.stats.back().iteration
                       << " from " << ckpt.path << " ("
                       << state.labeled.size() << " labels, "
                       << state.unlabeled.size() << " pool rows left)";
    }
  }

  if (!resumed) {
    state.seed = options.seed;
    // Unlabeled pool U as an index set.
    state.unlabeled.resize(pool.size());
    std::iota(state.unlabeled.begin(), state.unlabeled.end(), 0);
    rng.Shuffle(&state.unlabeled);

    // ---- Algorithm 1, lines 1-4: initial human-labeled sample ----
    size_t n_init = std::min(options.init_size, pool.size());
    // α below divides by n_init; guard here (not only at the entry checks)
    // so no future clamp of n_init can reintroduce the NaN that would poison
    // the Remark-2 positive-ratio preservation and the
    // active.positive_ratio gauge.
    if (n_init == 0) {
      return Status::InvalidArgument("empty initial sample (n_init == 0)");
    }
    for (size_t k = 0; k < n_init; ++k) {
      size_t idx = state.unlabeled.back();
      state.unlabeled.pop_back();
      state.labeled.push_back({idx, oracle->Label(idx), /*machine=*/false});
    }
    oracle_labels->Add(n_init);

    // α: positive ratio of the initial training data (Remark 2).
    size_t init_pos = 0;
    for (const auto& r : state.labeled) init_pos += (r.label == 1);
    state.alpha = static_cast<double>(init_pos) / static_cast<double>(n_init);
    AUTOEM_LOG(INFO) << "active: init " << n_init << " labels, alpha="
                     << state.alpha;
    state.model_seed = rng.engine()();
  }
  positive_ratio->Set(state.alpha);

  RandomForestOptions model_opt = options.model;
  model_opt.seed = state.model_seed;
  model_opt.parallelism = options.parallelism;
  RandomForestClassifier model(model_opt);
  // Built once for the session: every refit derives its ranks from these.
  std::optional<FeatureRanks> pool_ranks;
  if (!model_opt.random_thresholds) {
    if (pool.size() > FeatureRanks::kMaxRows) {
      return Status::InvalidArgument("active: pool has too many rows");
    }
    pool_ranks.emplace(pool.X);
  }
  const FeatureRanks* ranks = pool_ranks ? &*pool_ranks : nullptr;
  AUTOEM_RETURN_IF_ERROR(
      FitIterationModel(&model, pool, ranks, state.labeled));

  auto record_iteration = [&](size_t iter) {
    ActiveIterationStats stats;
    stats.iteration = iter;
    stats.human_labels = HumanLabels(state.labeled);
    stats.machine_labels = state.labeled.size() - stats.human_labels;
    if (test != nullptr) {
      stats.iteration_model_test_f1 =
          F1Score(test->y, model.Predict(test->X));
    }
    state.stats.push_back(stats);
  };

  // Checkpoint after every iteration: human labels are too expensive to
  // lose, so there is no every-N cadence here. A failed write degrades
  // resume granularity but never kills a healthy run.
  auto save_checkpoint = [&] {
    if (ckpt.path.empty()) return;
    std::ostringstream rng_text;
    rng_text << rng.engine();
    state.rng_state = rng_text.str();
    Status st = SaveActiveCheckpoint(state, ckpt.path);
    if (!st.ok()) {
      AUTOEM_LOG(WARN) << "active: checkpoint write to " << ckpt.path
                       << " failed: " << st.ToString();
    }
  };

  if (!resumed) {
    record_iteration(0);
    save_checkpoint();
  }

  // ---- Algorithm 1, lines 5-12: the labeling loop ----
  for (int iter = static_cast<int>(state.stats.size());
       iter <= options.max_iterations; ++iter) {
    const size_t human_used = HumanLabels(state.labeled);
    if (state.unlabeled.empty() || human_used >= options.label_budget) {
      break;
    }

    obs::Span iter_span("active.iteration");
    if (iter_span.active()) iter_span.Arg("iteration", iter);
    obs::ResourceProbe iter_probe;

    // Confidence of every unlabeled pair under the current model.
    Dataset u_data = pool.SelectRows(state.unlabeled);
    auto [proba, conf] = model.PredictProbaAndConfidence(u_data.X);

    // Query priority: smaller = queried earlier. Self-training always uses
    // the committee confidence for its high-confidence end.
    std::vector<double> query_score(state.unlabeled.size());
    switch (options.query_strategy) {
      case QueryStrategy::kCommittee:
        query_score = conf;
        break;
      case QueryStrategy::kMargin:
        for (size_t k = 0; k < proba.size(); ++k) {
          query_score[k] = std::fabs(2.0 * proba[k] - 1.0);
        }
        break;
      case QueryStrategy::kRandom:
        for (size_t k = 0; k < query_score.size(); ++k) {
          query_score[k] = rng.Uniform();
        }
        break;
    }

    // Positions into the unlabeled pool.
    std::vector<size_t> order(state.unlabeled.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return query_score[a] < query_score[b];
    });
    // The self-training end must rank by committee confidence even when the
    // query end uses a different strategy.
    std::vector<size_t> st_order = order;
    if (options.query_strategy != QueryStrategy::kCommittee) {
      std::sort(st_order.begin(), st_order.end(),
                [&](size_t a, size_t b) { return conf[a] < conf[b]; });
    }

    std::vector<bool> taken(state.unlabeled.size(), false);

    // Active learning: lowest-confidence pairs go to the human.
    size_t ac_take = std::min({options.ac_batch, state.unlabeled.size(),
                               options.label_budget - human_used});
    for (size_t k = 0; k < ac_take; ++k) {
      size_t pos = order[k];
      taken[pos] = true;
      size_t idx = state.unlabeled[pos];
      state.labeled.push_back({idx, oracle->Label(idx), /*machine=*/false});
    }

    // Self-training: highest-confidence pairs keep their predicted labels,
    // with the class mix pinned to α (Remark 2) unless disabled.
    size_t got_pos = 0;
    size_t got_neg = 0;
    if (options.st_batch > 0) {
      size_t st_take = std::min(options.st_batch,
                                state.unlabeled.size() - ac_take);
      size_t want_pos = options.preserve_class_ratio
                            ? static_cast<size_t>(state.alpha * st_take + 0.5)
                            : st_take;  // naive mode: no quota
      for (size_t k = st_order.size();
           k-- > 0 && got_pos + got_neg < st_take;) {
        size_t pos = st_order[k];
        if (taken[pos]) continue;
        int pred = proba[pos] >= 0.5 ? 1 : 0;
        if (options.preserve_class_ratio) {
          if (pred == 1 && got_pos >= want_pos) continue;
          if (pred == 0 && got_neg >= st_take - want_pos) continue;
        }
        taken[pos] = true;
        size_t idx = state.unlabeled[pos];
        state.labeled.push_back({idx, pred, /*machine=*/true});
        (pred == 1 ? got_pos : got_neg) += 1;
      }
    }

    // Remove the taken pairs from U.
    std::vector<size_t> next_unlabeled;
    next_unlabeled.reserve(state.unlabeled.size());
    for (size_t pos = 0; pos < state.unlabeled.size(); ++pos) {
      if (!taken[pos]) next_unlabeled.push_back(state.unlabeled[pos]);
    }
    state.unlabeled = std::move(next_unlabeled);

    AUTOEM_RETURN_IF_ERROR(
        FitIterationModel(&model, pool, ranks, state.labeled));
    record_iteration(static_cast<size_t>(iter));
    save_checkpoint();

    oracle_labels->Add(ac_take);
    self_train_labels->Add(got_pos + got_neg);
    pool_remaining->Set(static_cast<double>(state.unlabeled.size()));
    if (iter_probe.active()) {
      static obs::Histogram* iter_cpu_ms =
          obs::MetricsRegistry::Global().GetHistogram(
              "active.iteration_cpu_ms");
      obs::ResourceUsage used = iter_probe.Take();
      iter_cpu_ms->Observe(used.cpu_seconds * 1000.0);
      if (iter_span.active()) {
        iter_span.Arg("cpu_ms", used.cpu_seconds * 1000.0);
        iter_span.Arg("rss_delta_kb", used.peak_rss_delta_kb);
        iter_span.Arg("allocs", used.allocs);
      }
    }
    const ActiveIterationStats& done = state.stats.back();
    if (iter_span.active()) {
      iter_span.Arg("human_labels", done.human_labels);
      iter_span.Arg("machine_labels", done.machine_labels);
      iter_span.Arg("pool_remaining", state.unlabeled.size());
      iter_span.Arg("test_f1", done.iteration_model_test_f1);
    }
    AUTOEM_LOG(DEBUG) << "active: iteration " << iter
                      << " human=" << done.human_labels
                      << " machine=" << done.machine_labels
                      << " pool=" << state.unlabeled.size();
  }

  ActiveLearningResult result;
  result.iterations = std::move(state.stats);
  result.collected = BuildDataset(pool, state.labeled);
  result.is_machine_label.reserve(state.labeled.size());
  size_t machine_correct = 0;
  for (const auto& r : state.labeled) {
    result.is_machine_label.push_back(r.machine);
    if (r.machine) {
      result.machine_labels_added += 1;
      if (true_labels != nullptr &&
          ((*true_labels)[r.pool_index] == 1) == (r.label == 1)) {
        ++machine_correct;
      }
    }
  }
  result.human_labels_used = state.labeled.size() - result.machine_labels_added;
  if (true_labels != nullptr && result.machine_labels_added > 0) {
    result.machine_label_accuracy =
        static_cast<double>(machine_correct) /
        static_cast<double>(result.machine_labels_added);
  }

  // ---- Algorithm 1, line 13: AutoML-EM on the collected labels ----
  if (options.run_automl_at_end) {
    AutoMlEmOptions automl_options = options.automl;
    automl_options.parallelism = options.parallelism;
    auto automl = RunAutoMlEm(result.collected, automl_options);
    if (!automl.ok()) return automl.status();
    result.automl.emplace(std::move(*automl));
  }
  return result;
}

}  // namespace autoem
