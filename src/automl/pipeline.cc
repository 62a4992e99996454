#include "automl/pipeline.h"

#include <utility>

#include "automl/config_io.h"
#include "common/string_util.h"
#include "fault/failpoint.h"
#include "io/serialize.h"
#include "ml/models/model_registry.h"
#include "preprocess/balancing.h"
#include "preprocess/feature_agglomeration.h"
#include "preprocess/feature_selection.h"
#include "preprocess/imputer.h"
#include "preprocess/pca.h"
#include "preprocess/scalers.h"

namespace autoem {

namespace {

// Collects "prefix:key" entries of `config` into {key: value}.
ParamMap SubParams(const Configuration& config, const std::string& prefix) {
  ParamMap out;
  std::string full_prefix = prefix + ":";
  for (const auto& [key, value] : config) {
    if (StartsWith(key, full_prefix)) {
      out[key.substr(full_prefix.size())] = value;
    }
  }
  return out;
}

Result<std::unique_ptr<Transform>> MakePreprocessor(
    const std::string& choice, const Configuration& config) {
  if (choice == "no_preprocessing") {
    return std::unique_ptr<Transform>(nullptr);
  }
  if (choice == "select_percentile_classification") {
    ParamMap p = SubParams(config, "preprocessor:" + choice);
    return std::unique_ptr<Transform>(new SelectPercentile(
        GetDouble(p, "percentile", 50.0),
        GetString(p, "score_func", "f_classif")));
  }
  if (choice == "select_rates") {
    ParamMap p = SubParams(config, "preprocessor:" + choice);
    return std::unique_ptr<Transform>(
        new SelectRates(GetDouble(p, "alpha", 0.05),
                        GetString(p, "mode", "fpr"),
                        GetString(p, "score_func", "chi2")));
  }
  if (choice == "pca") {
    ParamMap p = SubParams(config, "preprocessor:" + choice);
    return std::unique_ptr<Transform>(
        new Pca(GetDouble(p, "keep_variance", 0.95)));
  }
  if (choice == "feature_agglomeration") {
    ParamMap p = SubParams(config, "preprocessor:" + choice);
    return std::unique_ptr<Transform>(new FeatureAgglomeration(
        static_cast<int>(GetInt(p, "n_clusters", 25))));
  }
  if (choice == "variance_threshold") {
    ParamMap p = SubParams(config, "preprocessor:" + choice);
    return std::unique_ptr<Transform>(
        new VarianceThreshold(GetDouble(p, "threshold", 0.0)));
  }
  return Status::NotFound("unknown preprocessor: " + choice);
}

Result<std::unique_ptr<Transform>> MakeScaler(const std::string& choice,
                                              const Configuration& config) {
  if (choice == "none") return std::unique_ptr<Transform>(nullptr);
  if (choice == "standard_scaler") {
    return std::unique_ptr<Transform>(new StandardScaler());
  }
  if (choice == "minmax_scaler") {
    return std::unique_ptr<Transform>(new MinMaxScaler());
  }
  if (choice == "robust_scaler") {
    ParamMap p = SubParams(config, "rescaling:robust_scaler");
    return std::unique_ptr<Transform>(new RobustScaler(
        GetDouble(p, "q_min", 25.0), GetDouble(p, "q_max", 75.0)));
  }
  return Status::NotFound("unknown rescaling choice: " + choice);
}

/// Reads a component name tag written by SaveFitted and checks it against
/// the component Compile produced — catching file/configuration divergence
/// before any fitted state is interpreted against the wrong component.
Status ExpectComponent(io::Reader* r, const std::string& expected) {
  std::string actual;
  AUTOEM_RETURN_IF_ERROR(r->Str(&actual));
  if (actual != expected) {
    return Status::InvalidArgument("model file component '" + actual +
                                   "' does not match configured '" +
                                   expected + "'");
  }
  return Status::OK();
}

}  // namespace

Status EmPipeline::SaveFitted(io::Writer* w) const {
  if (classifier_ == nullptr || imputer_ == nullptr) {
    return Status::FailedPrecondition("pipeline is not compiled");
  }
  WriteConfigurationBinary(w, config_);
  w->U64(active_feature_names_.size());
  for (const auto& name : active_feature_names_) w->Str(name);

  w->Str(imputer_->name());
  AUTOEM_RETURN_IF_ERROR(imputer_->SaveState(w));
  w->U8(scaler_ ? 1 : 0);
  if (scaler_) {
    w->Str(scaler_->name());
    AUTOEM_RETURN_IF_ERROR(scaler_->SaveState(w));
  }
  w->U8(preprocessor_ ? 1 : 0);
  if (preprocessor_) {
    w->Str(preprocessor_->name());
    AUTOEM_RETURN_IF_ERROR(preprocessor_->SaveState(w));
  }
  w->Str(classifier_->name());
  return classifier_->SaveFitted(w);
}

Result<EmPipeline> EmPipeline::LoadFitted(io::Reader* r) {
  Configuration config;
  AUTOEM_RETURN_IF_ERROR(ReadConfigurationBinary(r, &config));
  auto compiled = Compile(config);
  if (!compiled.ok()) return compiled.status();
  EmPipeline pipeline = std::move(*compiled);

  uint64_t n_names;
  AUTOEM_RETURN_IF_ERROR(r->Len(&n_names, 8));
  pipeline.active_feature_names_.assign(static_cast<size_t>(n_names), {});
  for (auto& name : pipeline.active_feature_names_) {
    AUTOEM_RETURN_IF_ERROR(r->Str(&name));
  }

  AUTOEM_RETURN_IF_ERROR(ExpectComponent(r, pipeline.imputer_->name()));
  AUTOEM_RETURN_IF_ERROR(pipeline.imputer_->LoadState(r));
  uint8_t has_scaler;
  AUTOEM_RETURN_IF_ERROR(r->U8(&has_scaler));
  if ((has_scaler != 0) != (pipeline.scaler_ != nullptr)) {
    return Status::InvalidArgument(
        "model file scaler presence does not match its configuration");
  }
  if (pipeline.scaler_) {
    AUTOEM_RETURN_IF_ERROR(ExpectComponent(r, pipeline.scaler_->name()));
    AUTOEM_RETURN_IF_ERROR(pipeline.scaler_->LoadState(r));
  }
  uint8_t has_preproc;
  AUTOEM_RETURN_IF_ERROR(r->U8(&has_preproc));
  if ((has_preproc != 0) != (pipeline.preprocessor_ != nullptr)) {
    return Status::InvalidArgument(
        "model file preprocessor presence does not match its configuration");
  }
  if (pipeline.preprocessor_) {
    AUTOEM_RETURN_IF_ERROR(ExpectComponent(r, pipeline.preprocessor_->name()));
    AUTOEM_RETURN_IF_ERROR(pipeline.preprocessor_->LoadState(r));
  }
  AUTOEM_RETURN_IF_ERROR(ExpectComponent(r, pipeline.classifier_->name()));
  AUTOEM_RETURN_IF_ERROR(pipeline.classifier_->LoadFitted(r));
  return pipeline;
}

Status EmPipeline::CheckWidths(size_t input_width) const {
  size_t width = input_width;
  for (const Transform* stage :
       {imputer_.get(), scaler_.get(), preprocessor_.get()}) {
    if (stage == nullptr) continue;
    auto out = stage->OutputWidth(width);
    if (!out.ok()) return out.status();
    width = *out;
  }
  if (width != active_feature_names_.size()) {
    return Status::InvalidArgument(
        "pipeline: transforms write " + std::to_string(width) +
        " columns, the model names " +
        std::to_string(active_feature_names_.size()) + " features");
  }
  return classifier_->CheckInputWidth(width);
}

Result<EmPipeline> EmPipeline::Compile(const Configuration& config) {
  EmPipeline pipeline;
  pipeline.config_ = config;
  pipeline.seed_ = static_cast<uint64_t>(GetInt(config, "seed", 11));

  pipeline.balancing_ = GetString(config, "balancing:strategy", "none");
  if (pipeline.balancing_ != "none" && pipeline.balancing_ != "weighting" &&
      pipeline.balancing_ != "oversample") {
    return Status::NotFound("unknown balancing strategy: " +
                            pipeline.balancing_);
  }

  pipeline.imputer_ = std::make_unique<SimpleImputer>(
      GetString(config, "imputation:strategy", "mean"));

  auto scaler =
      MakeScaler(GetString(config, "rescaling:__choice__", "none"), config);
  if (!scaler.ok()) return scaler.status();
  pipeline.scaler_ = std::move(*scaler);

  auto preproc = MakePreprocessor(
      GetString(config, "preprocessor:__choice__", "no_preprocessing"),
      config);
  if (!preproc.ok()) return preproc.status();
  pipeline.preprocessor_ = std::move(*preproc);

  std::string model_name =
      GetString(config, "classifier:__choice__", "random_forest");
  ParamMap model_params = SubParams(config, "classifier:" + model_name);
  model_params["seed"] = static_cast<int64_t>(pipeline.seed_);
  auto classifier = CreateClassifier(model_name, model_params);
  if (!classifier.ok()) return classifier.status();
  pipeline.classifier_ = std::move(*classifier);

  return pipeline;
}

Status EmPipeline::Fit(const Dataset& train) {
  if (train.size() == 0) return Status::InvalidArgument("empty training set");
  AUTOEM_FAILPOINT("pipeline.fit");

  AUTOEM_RETURN_IF_ERROR(imputer_->Fit(train.X, train.y));
  Matrix X = imputer_->Apply(train.X);
  active_feature_names_ = train.feature_names;

  // Cancellation is checked at every stage boundary; the classifier fit
  // below additionally polls the token internally (forest ensembles).
  AUTOEM_RETURN_IF_ERROR(cancel_.Check("pipeline.impute"));
  if (scaler_) {
    AUTOEM_RETURN_IF_ERROR(scaler_->Fit(X, train.y));
    X = scaler_->Apply(X);
    AUTOEM_RETURN_IF_ERROR(cancel_.Check("pipeline.rescale"));
  }
  if (preprocessor_) {
    AUTOEM_RETURN_IF_ERROR(preprocessor_->Fit(X, train.y));
    X = preprocessor_->Apply(X);
    active_feature_names_ = preprocessor_->OutputNames(active_feature_names_);
    AUTOEM_RETURN_IF_ERROR(cancel_.Check("pipeline.preprocess"));
  }

  std::vector<int> y = train.y;
  std::vector<double> weights;
  if (balancing_ == "weighting") {
    auto w = BalancedClassWeights(y);
    // Single-class training data: fall back to uniform weights instead of
    // failing the whole pipeline.
    if (w.ok()) weights = std::move(*w);
  } else if (balancing_ == "oversample") {
    Rng rng(seed_);
    auto idx = RandomOversampleIndices(y, &rng);
    if (idx.ok()) {
      X = X.SelectRows(*idx);
      std::vector<int> new_y;
      new_y.reserve(idx->size());
      for (size_t i : *idx) new_y.push_back(y[i]);
      y = std::move(new_y);
    }
  }

  return classifier_->Fit(X, y, weights.empty() ? nullptr : &weights);
}

Matrix EmPipeline::RunTransforms(const Matrix& X_in) const {
  Matrix X = imputer_->Apply(X_in);
  if (scaler_) X = scaler_->Apply(X);
  if (preprocessor_) X = preprocessor_->Apply(X);
  return X;
}

std::vector<double> EmPipeline::PredictProba(const Matrix& X) const {
  AUTOEM_CHECK(classifier_ != nullptr);
  return classifier_->PredictProba(RunTransforms(X));
}

std::vector<int> EmPipeline::Predict(const Matrix& X,
                                     double threshold) const {
  std::vector<double> proba = PredictProba(X);
  std::vector<int> out(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) {
    out[i] = proba[i] >= threshold ? 1 : 0;
  }
  return out;
}

std::string EmPipeline::ToString() const {
  std::string out = "Pipeline{\n";
  for (const auto& [key, value] : config_) {
    out += "  '" + key + "': " + value.ToString() + ",\n";
  }
  out += "}";
  return out;
}

Configuration EmPipeline::DisableDataPreprocessing(Configuration config) {
  config["balancing:strategy"] = "none";
  config["rescaling:__choice__"] = "none";
  return config;
}

Configuration EmPipeline::DisableFeaturePreprocessing(Configuration config) {
  config["preprocessor:__choice__"] = "no_preprocessing";
  return config;
}

}  // namespace autoem
