#include "ml/models/random_forest.h"

#include "io/serialize.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.h"
#include "common/timer.h"
#include "fault/failpoint.h"
#include "obs/obs.h"

namespace autoem {

RandomForestClassifier::RandomForestClassifier(RandomForestOptions options)
    : options_(std::move(options)) {}

std::unique_ptr<Classifier> RandomForestClassifier::FromParams(
    const ParamMap& params) {
  RandomForestOptions opt;
  opt.n_estimators = static_cast<int>(GetInt(params, "n_estimators", 100));
  opt.criterion = GetString(params, "criterion", "gini");
  opt.max_depth = static_cast<int>(GetInt(params, "max_depth", 0));
  opt.min_samples_split =
      static_cast<int>(GetInt(params, "min_samples_split", 2));
  opt.min_samples_leaf =
      static_cast<int>(GetInt(params, "min_samples_leaf", 1));
  opt.max_features = GetDouble(params, "max_features", -1.0);
  opt.min_impurity_decrease =
      GetDouble(params, "min_impurity_decrease", 0.0);
  opt.bootstrap = GetBool(params, "bootstrap", true);
  opt.random_thresholds = GetBool(params, "random_thresholds", false);
  opt.seed = static_cast<uint64_t>(GetInt(params, "seed", 7));
  return std::make_unique<RandomForestClassifier>(opt);
}

Status RandomForestClassifier::Fit(const Matrix& X, const std::vector<int>& y,
                                   const std::vector<double>* sample_weights) {
  return FitWith(X, nullptr, y, sample_weights);
}

Status RandomForestClassifier::Fit(const Matrix& X, const FeatureRanks& ranks,
                                   const std::vector<int>& y,
                                   const std::vector<double>* sample_weights) {
  return FitWith(X, &ranks, y, sample_weights);
}

Status RandomForestClassifier::FitWith(
    const Matrix& X, const FeatureRanks* given_ranks,
    const std::vector<int>& y, const std::vector<double>* sample_weights) {
  AUTOEM_RETURN_IF_ERROR(ValidateFitInputs(X, y, sample_weights));
  AUTOEM_FAILPOINT("rf.fit");
  if (options_.n_estimators <= 0) {
    return Status::InvalidArgument("n_estimators must be positive");
  }
  if (given_ranks != nullptr && (given_ranks->rows() != X.rows() ||
                                 given_ranks->cols() != X.cols())) {
    return Status::InvalidArgument("random_forest: ranks do not match X");
  }
  static obs::Counter* trees_trained =
      obs::MetricsRegistry::Global().GetCounter("ml.rf_trees_trained");
  static obs::Histogram* fit_ms =
      obs::MetricsRegistry::Global().GetHistogram("ml.rf_fit_ms");
  obs::Span span("rf.fit");
  if (span.active()) {
    span.Arg("trees", options_.n_estimators);
    span.Arg("rows", X.rows());
    span.Arg("cols", X.cols());
  }
  Stopwatch timer;
  trees_.clear();
  flat_.Clear();
  trees_.reserve(options_.n_estimators);

  TreeOptions tree_opt;
  tree_opt.criterion = options_.criterion;
  tree_opt.max_depth = options_.max_depth;
  tree_opt.min_samples_split = options_.min_samples_split;
  tree_opt.min_samples_leaf = options_.min_samples_leaf;
  tree_opt.max_features =
      options_.max_features > 0.0
          ? options_.max_features
          : std::sqrt(static_cast<double>(X.cols())) / X.cols();
  tree_opt.min_impurity_decrease = options_.min_impurity_decrease;
  tree_opt.random_thresholds = options_.random_thresholds;
  tree_opt.cancel = cancel_;

  Rng rng(options_.seed);
  const size_t n = X.rows();
  const size_t n_trees = static_cast<size_t>(options_.n_estimators);
  std::vector<double> base_w =
      sample_weights ? *sample_weights : std::vector<double>(n, 1.0);
  // Bootstrap is expressed as weights, so every tree splits the same X:
  // its split ranks are built once here, unless the caller passed them, and
  // shared read-only. Random thresholds never scan, so Extra-Trees skips
  // them.
  std::optional<FeatureRanks> built;
  const FeatureRanks* ranks = nullptr;
  if (!options_.random_thresholds) {
    if (given_ranks == nullptr) {
      if (n > FeatureRanks::kMaxRows) {
        return Status::InvalidArgument("random_forest: too many rows");
      }
      built.emplace(X);
    }
    ranks = given_ranks != nullptr ? given_ranks : &*built;
  }

  // Every tree's randomness (split seed + bootstrap weights) is drawn from
  // the root RNG *before* any tree trains, in the same interleaved order a
  // serial loop would draw it. Tree t's inputs therefore do not depend on
  // trees 0..t-1 having trained, which makes the fitted forest bit-identical
  // at any thread count — and bit-identical to the historical serial
  // implementation. Costs O(n_estimators * n_rows) doubles of transient
  // memory for the staged bootstrap weights.
  std::vector<uint64_t> tree_seeds(n_trees);
  std::vector<std::vector<double>> tree_weights(n_trees);
  for (size_t t = 0; t < n_trees; ++t) {
    tree_seeds[t] = rng.engine()();
    std::vector<double>& w = tree_weights[t];
    if (options_.bootstrap) {
      // Bootstrap resampling expressed as integer weights, scaled by any
      // caller-provided sample weights.
      w.assign(n, 0.0);
      for (size_t k = 0; k < n; ++k) w[rng.UniformIndex(n)] += 1.0;
      for (size_t k = 0; k < n; ++k) w[k] *= base_w[k];
    } else {
      w = base_w;
    }
  }
  for (size_t t = 0; t < n_trees; ++t) {
    tree_opt.seed = tree_seeds[t];
    trees_.emplace_back(tree_opt);
  }

  static obs::Counter* degenerate_retries = obs::MetricsRegistry::Global()
      .GetCounter("ml.rf_degenerate_bootstrap_retries");
  // A bootstrap draw is degenerate when every sample with surviving weight
  // carries the same label (or none survives at all) — the tree cannot
  // split and Fit rejects its inputs. Only that case earns a retry with the
  // unresampled weights; any other error is a real failure and must
  // propagate (retrying used to mask injected faults and genuine bugs by
  // silently training on different data).
  auto degenerate_bootstrap = [&](const std::vector<double>& w) {
    int seen_label = -1;
    for (size_t i = 0; i < w.size(); ++i) {
      if (w[i] <= 0.0) continue;
      if (seen_label == -1) {
        seen_label = y[i];
      } else if (y[i] != seen_label) {
        return false;
      }
    }
    return true;
  };

  std::vector<Status> tree_status(n_trees);
  // Cancellable dispatch: once the trial deadline fires, pending trees are
  // skipped entirely and in-flight trees bail at their next node; the
  // DeadlineExceeded from the ParallelFor wrapper wins over per-tree status
  // so the half-built forest is reported unusable.
  Status loop_status = ParallelFor(
      options_.parallelism, n_trees, cancel_,
      [&](size_t t) {
        auto fit = [&](const std::vector<double>* w) {
          return ranks ? trees_[t].Fit(X, *ranks, y, w)
                       : trees_[t].Fit(X, y, w);
        };
        Status st = fit(&tree_weights[t]);
        if (!st.ok() && st.code() == StatusCode::kInvalidArgument &&
            degenerate_bootstrap(tree_weights[t])) {
          degenerate_retries->Add(1);
          st = fit(&base_w);
        }
        tree_status[t] = st;
      },
      "rf.fit_trees");
  if (!loop_status.ok()) return loop_status;
  for (const Status& st : tree_status) {
    if (!st.ok()) return st;
  }
  RebuildFlat();
  trees_trained->Add(n_trees);
  fit_ms->Observe(timer.ElapsedMillis());
  return Status::OK();
}

std::vector<double> RandomForestClassifier::PredictProba(
    const Matrix& X) const {
  obs::Span span("rf.predict_proba");
  if (span.active()) span.Arg("rows", X.rows());
  std::vector<double> out(X.rows(), 0.0);
  Score(X, out.data(), nullptr);
  return out;
}

RandomForestClassifier::ProbaAndConfidence
RandomForestClassifier::PredictProbaAndConfidence(const Matrix& X) const {
  obs::Span span("rf.predict_committee");
  if (span.active()) span.Arg("rows", X.rows());
  ProbaAndConfidence out;
  out.proba.assign(X.rows(), 0.0);
  std::vector<uint32_t> votes(X.rows(), 0);
  Score(X, out.proba.data(), votes.data());
  out.confidence.resize(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) {
    double frac_pos =
        static_cast<double>(votes[r]) / static_cast<double>(trees_.size());
    out.confidence[r] = std::max(frac_pos, 1.0 - frac_pos);
  }
  return out;
}

std::vector<double> RandomForestClassifier::VoteConfidence(
    const Matrix& X) const {
  return PredictProbaAndConfidence(X).confidence;
}

void RandomForestClassifier::Score(const Matrix& X, double* proba,
                                   uint32_t* votes) const {
  AUTOEM_CHECK(!trees_.empty() && !flat_.empty());
  static obs::Histogram* predict_ms =
      obs::MetricsRegistry::Global().GetHistogram("ml.rf_predict_ms");
  Stopwatch timer;
  // Batched pair-major traversal over the flattened node array: each worker
  // takes a contiguous row chunk and walks a block of rows through each
  // tree in lockstep (flat_forest.h). Every row still
  // accumulates its trees in forest order, so the floating-point sum — and
  // therefore the output — is bit-identical to the scalar per-row walk at
  // any thread count and chunking. Votes are integer counts, exact in any
  // order.
  constexpr size_t kChunk = 256;
  const size_t n_chunks = (X.rows() + kChunk - 1) / kChunk;
  ParallelFor(
      options_.parallelism, n_chunks,
      [&](size_t c) {
        const size_t begin = c * kChunk;
        const size_t end = std::min(begin + kChunk, X.rows());
        flat_.AccumulateRows(X, begin, end, proba + begin,
                             votes != nullptr ? votes + begin : nullptr);
        for (size_t r = begin; r < end; ++r) {
          proba[r] /= static_cast<double>(trees_.size());
        }
      },
      "rf.predict");
  predict_ms->Observe(timer.ElapsedMillis());
}

std::unique_ptr<Classifier> RandomForestClassifier::CloneConfig() const {
  return std::make_unique<RandomForestClassifier>(options_);
}


Status RandomForestClassifier::SaveFitted(io::Writer* w) const {
  w->U64(trees_.size());
  for (const auto& tree : trees_) {
    AUTOEM_RETURN_IF_ERROR(tree.SaveFitted(w));
  }
  return Status::OK();
}

Status RandomForestClassifier::LoadFitted(io::Reader* r) {
  uint64_t count;
  // Every encoded tree carries at least its 8-byte node count.
  AUTOEM_RETURN_IF_ERROR(r->Len(&count, 8));
  if (count == 0) {
    return Status::InvalidArgument(name() + ": forest has no trees");
  }
  // Prediction only walks the stored nodes, so loaded trees are built with
  // default TreeOptions; the forest-level options_ came from Compile.
  trees_.assign(static_cast<size_t>(count), DecisionTreeClassifier());
  flat_.Clear();
  for (auto& tree : trees_) {
    AUTOEM_RETURN_IF_ERROR(tree.LoadFitted(r));
  }
  RebuildFlat();
  return Status::OK();
}

Status RandomForestClassifier::CheckInputWidth(size_t width) const {
  for (const auto& tree : trees_) {
    Status st = tree.CheckInputWidth(width);
    if (!st.ok()) return Status::InvalidArgument(name() + ": " + st.message());
  }
  return Status::OK();
}

void RandomForestClassifier::RebuildFlat() {
  flat_.Clear();
  for (const auto& tree : trees_) {
    flat_.AppendTree(tree.nodes(), [](const DecisionTreeClassifier::Node& n) {
      return n.prob_positive;
    });
  }
}

}  // namespace autoem
