#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "automl/automl_em.h"
#include "automl/evaluator.h"
#include "automl/param_space.h"
#include "automl/pipeline.h"
#include "automl/search_space.h"
#include "automl/smac.h"
#include "automl/surrogate.h"
#include "common/rng.h"
#include "ml/metrics.h"

namespace autoem {
namespace {

// Noisy blobs: learnable but imperfect, so pipeline quality matters.
Dataset MakeEmLikeData(size_t n, uint64_t seed, double noise = 1.6) {
  Rng rng(seed);
  Dataset d;
  const size_t dims = 10;
  d.X = Matrix(n, dims);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.25) ? 1 : 0;  // EM-like imbalance
    d.y[i] = label;
    for (size_t c = 0; c < dims; ++c) {
      // Half the features are informative, half noise.
      double center = (c < dims / 2 && label == 1) ? 1.0 : 0.0;
      d.X.At(i, c) = rng.Normal(center, noise);
    }
    if (rng.Bernoulli(0.05)) {
      d.X.At(i, rng.UniformIndex(dims)) =
          std::numeric_limits<double>::quiet_NaN();
    }
  }
  for (size_t c = 0; c < dims; ++c) {
    d.feature_names.push_back("f" + std::to_string(c));
  }
  return d;
}

// ---- ParamSpec / ConfigurationSpace -------------------------------------------

TEST(ParamSpecTest, CategoricalSampleInDomain) {
  ParamSpec spec;
  spec.name = "c";
  spec.kind = ParamKind::kCategorical;
  spec.choices = {"a", "b", "c"};
  Rng rng(1);
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    ParamValue v = spec.Sample(&rng);
    EXPECT_TRUE(spec.Contains(v));
    seen.insert(v.AsString());
  }
  EXPECT_EQ(seen.size(), 3u);  // all choices hit eventually
}

TEST(ParamSpecTest, NumericSampleInDomain) {
  ParamSpec f;
  f.kind = ParamKind::kFloat;
  f.lo = 0.2;
  f.hi = 0.8;
  ParamSpec i;
  i.kind = ParamKind::kInt;
  i.lo = 3;
  i.hi = 17;
  ParamSpec lg;
  lg.kind = ParamKind::kFloat;
  lg.lo = 1e-6;
  lg.hi = 1.0;
  lg.log_scale = true;
  Rng rng(2);
  for (int k = 0; k < 200; ++k) {
    EXPECT_TRUE(f.Contains(f.Sample(&rng)));
    EXPECT_TRUE(i.Contains(i.Sample(&rng)));
    EXPECT_TRUE(lg.Contains(lg.Sample(&rng)));
  }
}

TEST(ParamSpecTest, EncodeNormalizes) {
  ParamSpec f;
  f.kind = ParamKind::kFloat;
  f.lo = 0.0;
  f.hi = 10.0;
  EXPECT_DOUBLE_EQ(f.Encode(ParamValue(0.0)), 0.0);
  EXPECT_DOUBLE_EQ(f.Encode(ParamValue(10.0)), 1.0);
  EXPECT_DOUBLE_EQ(f.Encode(ParamValue(5.0)), 0.5);
  ParamSpec c;
  c.kind = ParamKind::kCategorical;
  c.choices = {"x", "y", "z"};
  EXPECT_DOUBLE_EQ(c.Encode(ParamValue("x")), 0.0);
  EXPECT_DOUBLE_EQ(c.Encode(ParamValue("z")), 1.0);
}

TEST(ConfigurationSpaceTest, SampleIsAlwaysValid) {
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kAllModels);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    Configuration config = space.Sample(&rng);
    EXPECT_TRUE(space.Validate(config).ok());
  }
}

TEST(ConfigurationSpaceTest, ConditionalParamsOnlyWhenParentMatches) {
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kAllModels);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    Configuration config = space.Sample(&rng);
    bool robust = GetString(config, "rescaling:__choice__", "") ==
                  "robust_scaler";
    EXPECT_EQ(config.count("rescaling:robust_scaler:q_min") > 0, robust);
    std::string clf = GetString(config, "classifier:__choice__", "");
    for (const auto& [key, value] : config) {
      if (key.rfind("classifier:", 0) == 0 && key != "classifier:__choice__") {
        EXPECT_EQ(key.rfind("classifier:" + clf + ":", 0), 0u) << key;
      }
    }
  }
}

TEST(ConfigurationSpaceTest, NeighborStaysValid) {
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kAllModels);
  Rng rng(5);
  Configuration base = space.Sample(&rng);
  for (int i = 0; i < 100; ++i) {
    Configuration n = space.Neighbor(base, &rng);
    EXPECT_TRUE(space.Validate(n).ok());
  }
}

TEST(ConfigurationSpaceTest, CompleteKeepsValidEntries) {
  ConfigurationSpace space =
      BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  Rng rng(6);
  Configuration partial;
  partial["classifier:__choice__"] = "random_forest";
  partial["classifier:random_forest:max_features"] = 0.42;
  Configuration full = space.Complete(partial, &rng);
  EXPECT_TRUE(space.Validate(full).ok());
  EXPECT_DOUBLE_EQ(
      GetDouble(full, "classifier:random_forest:max_features", 0), 0.42);
}

TEST(ConfigurationSpaceTest, EncodeWidthIsStable) {
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kAllModels);
  Rng rng(7);
  size_t width = space.Encode(space.Sample(&rng)).size();
  EXPECT_EQ(width, space.size());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(space.Encode(space.Sample(&rng)).size(), width);
  }
}

TEST(ConfigurationSpaceTest, RfOnlySpaceHasSingleClassifier) {
  ConfigurationSpace space =
      BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    Configuration config = space.Sample(&rng);
    EXPECT_EQ(GetString(config, "classifier:__choice__", ""),
              "random_forest");
  }
  // All-model space is strictly larger.
  EXPECT_GT(BuildEmSearchSpace(ModelSpace::kAllModels).size(), space.size());
}

TEST(ConfigurationSpaceTest, ValidateRejectsOutOfDomain) {
  ConfigurationSpace space =
      BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  Rng rng(9);
  Configuration config = space.Sample(&rng);
  config["classifier:random_forest:max_features"] = 7.0;  // domain (0.05, 1]
  EXPECT_FALSE(space.Validate(config).ok());
}

// ---- pipeline -------------------------------------------------------------------

TEST(PipelineTest, CompilesDefaultConfiguration) {
  auto pipeline =
      EmPipeline::Compile(DefaultEmConfiguration(ModelSpace::kAllModels));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
}

TEST(PipelineTest, FitPredictEndToEnd) {
  Dataset train = MakeEmLikeData(300, 10);
  Dataset test = MakeEmLikeData(150, 11);
  auto pipeline =
      EmPipeline::Compile(DefaultEmConfiguration(ModelSpace::kAllModels));
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE(pipeline->Fit(train).ok());
  double f1 = F1Score(test.y, pipeline->Predict(test.X));
  EXPECT_GT(f1, 0.3);  // clearly better than trivial on 25%-positive data
}

TEST(PipelineTest, EverySampledConfigurationIsTrainable) {
  // The searcher's robustness invariant: any sampled pipeline must compile
  // and fit (or fail gracefully, never crash).
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kAllModels);
  Rng rng(12);
  Dataset train = MakeEmLikeData(120, 13);
  int fitted = 0;
  for (int i = 0; i < 25; ++i) {
    Configuration config = space.Sample(&rng);
    auto pipeline = EmPipeline::Compile(config);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    if (pipeline->Fit(train).ok()) {
      ++fitted;
      std::vector<double> proba = pipeline->PredictProba(train.X);
      EXPECT_EQ(proba.size(), train.size());
    }
  }
  EXPECT_GE(fitted, 20);  // nearly all should fit
}

TEST(PipelineTest, RobustScalerParamsReachTheScaler) {
  Configuration config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["rescaling:__choice__"] = "robust_scaler";
  config["rescaling:robust_scaler:q_min"] = 10.0;
  config["rescaling:robust_scaler:q_max"] = 90.0;
  auto pipeline = EmPipeline::Compile(config);
  ASSERT_TRUE(pipeline.ok());
  Dataset train = MakeEmLikeData(100, 14);
  EXPECT_TRUE(pipeline->Fit(train).ok());
}

TEST(PipelineTest, FeatureSelectionShrinksActiveNames) {
  Configuration config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["preprocessor:__choice__"] = "select_percentile_classification";
  config["preprocessor:select_percentile_classification:percentile"] = 30.0;
  config["preprocessor:select_percentile_classification:score_func"] =
      "f_classif";
  auto pipeline = EmPipeline::Compile(config);
  ASSERT_TRUE(pipeline.ok());
  Dataset train = MakeEmLikeData(200, 15);
  ASSERT_TRUE(pipeline->Fit(train).ok());
  EXPECT_LT(pipeline->active_feature_names().size(),
            train.feature_names.size());
}

TEST(PipelineTest, UnknownComponentRejected) {
  Configuration config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["classifier:__choice__"] = "bogus_model";
  EXPECT_FALSE(EmPipeline::Compile(config).ok());
  config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["preprocessor:__choice__"] = "bogus_prep";
  EXPECT_FALSE(EmPipeline::Compile(config).ok());
  config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["balancing:strategy"] = "bogus";
  EXPECT_FALSE(EmPipeline::Compile(config).ok());
}

TEST(PipelineTest, ToStringContainsConfigKeys) {
  auto pipeline =
      EmPipeline::Compile(DefaultEmConfiguration(ModelSpace::kAllModels));
  ASSERT_TRUE(pipeline.ok());
  std::string s = pipeline->ToString();
  EXPECT_NE(s.find("classifier:__choice__"), std::string::npos);
  EXPECT_NE(s.find("random_forest"), std::string::npos);
}

TEST(PipelineTest, AblationHelpersResetKnobs) {
  Configuration config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["rescaling:__choice__"] = "robust_scaler";
  config["preprocessor:__choice__"] = "pca";
  Configuration no_dp = EmPipeline::DisableDataPreprocessing(config);
  EXPECT_EQ(GetString(no_dp, "rescaling:__choice__", ""), "none");
  EXPECT_EQ(GetString(no_dp, "balancing:strategy", ""), "none");
  EXPECT_EQ(GetString(no_dp, "preprocessor:__choice__", ""), "pca");
  Configuration no_fp = EmPipeline::DisableFeaturePreprocessing(config);
  EXPECT_EQ(GetString(no_fp, "preprocessor:__choice__", ""),
            "no_preprocessing");
}

TEST(PipelineTest, OversamplingPipelineFits) {
  Configuration config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["balancing:strategy"] = "oversample";
  auto pipeline = EmPipeline::Compile(config);
  ASSERT_TRUE(pipeline.ok());
  Dataset train = MakeEmLikeData(150, 16);
  EXPECT_TRUE(pipeline->Fit(train).ok());
}

// ---- evaluator ---------------------------------------------------------------------

TEST(EvaluatorTest, ReturnsEachTrialWithFailuresImputed) {
  Dataset train = MakeEmLikeData(150, 17);
  Dataset valid = MakeEmLikeData(80, 18);
  HoldoutEvaluator evaluator(train, valid);
  Configuration good = DefaultEmConfiguration(ModelSpace::kAllModels);
  Configuration bad = good;
  bad["classifier:__choice__"] = "bogus";  // compiles to score 0
  EvalRecord first = evaluator.Evaluate(good, 0);
  EvalRecord second = evaluator.Evaluate(bad, 1);
  EXPECT_EQ(first.trial, 0);
  EXPECT_EQ(first.failure, TrialFailure::kNone);
  EXPECT_GT(first.valid_f1, 0.0);
  EXPECT_EQ(second.trial, 1);
  EXPECT_EQ(second.failure, TrialFailure::kError);
  EXPECT_DOUBLE_EQ(second.valid_f1, 0.0);
}

TEST(EvaluatorTest, FailedPipelineScoresZeroNotCrash) {
  Dataset train = MakeEmLikeData(50, 19);
  Dataset valid = MakeEmLikeData(30, 20);
  HoldoutEvaluator evaluator(train, valid);
  Configuration config;  // empty config -> defaults, still compiles
  EvalRecord r = evaluator.Evaluate(config);
  EXPECT_GE(r.valid_f1, 0.0);
}

TEST(EvaluatorTest, TestSetScoredWhenAttached) {
  Dataset train = MakeEmLikeData(150, 21);
  Dataset valid = MakeEmLikeData(60, 22);
  Dataset test = MakeEmLikeData(60, 23);
  HoldoutEvaluator evaluator(train, valid);
  evaluator.SetTestSet(test);
  EvalRecord r =
      evaluator.Evaluate(DefaultEmConfiguration(ModelSpace::kAllModels));
  EXPECT_GE(r.test_f1, 0.0);
}

// ---- surrogate -----------------------------------------------------------------------

TEST(SurrogateTest, LearnsSmoothFunction) {
  Rng rng(24);
  Matrix X(120, 2);
  std::vector<double> y(120);
  for (size_t i = 0; i < 120; ++i) {
    X.At(i, 0) = rng.Uniform(0, 1);
    X.At(i, 1) = rng.Uniform(0, 1);
    y[i] = X.At(i, 0) * 0.8 + 0.1;  // score rises with x0
  }
  SurrogateForest surrogate;
  ASSERT_TRUE(surrogate.Fit(X, y).ok());
  double mean_low, var_low, mean_high, var_high;
  surrogate.PredictMeanVar({0.05, 0.5}, &mean_low, &var_low);
  surrogate.PredictMeanVar({0.95, 0.5}, &mean_high, &var_high);
  EXPECT_GT(mean_high, mean_low);
}

TEST(SurrogateTest, RejectsBadShapes) {
  SurrogateForest surrogate;
  Matrix X(3, 2);
  std::vector<double> y = {1.0, 2.0};
  EXPECT_FALSE(surrogate.Fit(X, y).ok());
}

TEST(ExpectedImprovementTest, Properties) {
  // Zero variance: EI is the positive part of the improvement.
  EXPECT_DOUBLE_EQ(ExpectedImprovement(0.8, 0.0, 0.5), 0.3);
  EXPECT_DOUBLE_EQ(ExpectedImprovement(0.4, 0.0, 0.5), 0.0);
  // Uncertainty adds hope: EI > 0 even below the incumbent.
  EXPECT_GT(ExpectedImprovement(0.4, 0.05, 0.5), 0.0);
  // More variance -> more EI at the same mean.
  EXPECT_GT(ExpectedImprovement(0.4, 0.10, 0.5),
            ExpectedImprovement(0.4, 0.01, 0.5));
}

// ---- searchers ------------------------------------------------------------------------

TEST(RandomSearchTest, RespectsEvaluationBudget) {
  Dataset train = MakeEmLikeData(120, 25);
  Dataset valid = MakeEmLikeData(60, 26);
  HoldoutEvaluator evaluator(train, valid);
  ConfigurationSpace space =
      BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  SearchOptions options;
  options.max_evaluations = 7;
  auto searched = RandomSearch(space, &evaluator, options);
  ASSERT_TRUE(searched.ok()) << searched.status().ToString();
  SearchOutcome outcome = std::move(*searched);
  EXPECT_EQ(outcome.trajectory.size(), 7u);
  EXPECT_TRUE(space.Validate(outcome.best_config).ok());
}

TEST(RandomSearchTest, BestIsMaxOfTrajectory) {
  Dataset train = MakeEmLikeData(120, 27);
  Dataset valid = MakeEmLikeData(60, 28);
  HoldoutEvaluator evaluator(train, valid);
  ConfigurationSpace space =
      BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  SearchOptions options;
  options.max_evaluations = 6;
  auto searched = RandomSearch(space, &evaluator, options);
  ASSERT_TRUE(searched.ok()) << searched.status().ToString();
  SearchOutcome outcome = std::move(*searched);
  double max_f1 = 0.0;
  for (const auto& r : outcome.trajectory) {
    max_f1 = std::max(max_f1, r.valid_f1);
  }
  EXPECT_DOUBLE_EQ(outcome.best_valid_f1, max_f1);
}

TEST(SmacSearchTest, RespectsBudgetAndImprovesOverInit) {
  Dataset train = MakeEmLikeData(250, 29);
  Dataset valid = MakeEmLikeData(120, 30);
  HoldoutEvaluator evaluator(train, valid);
  ConfigurationSpace space =
      BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  SmacOptions options;
  options.base.max_evaluations = 12;
  options.n_init = 4;
  auto searched = SmacSearch(space, &evaluator, options);
  ASSERT_TRUE(searched.ok()) << searched.status().ToString();
  SearchOutcome outcome = std::move(*searched);
  EXPECT_EQ(outcome.trajectory.size(), 12u);
  // Best-so-far must be monotone and final >= first evaluation.
  EXPECT_GE(outcome.best_valid_f1, outcome.trajectory[0].valid_f1);
}

TEST(SmacSearchTest, DeterministicWithSeed) {
  ConfigurationSpace space =
      BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  SmacOptions options;
  options.base.max_evaluations = 6;
  options.base.seed = 99;
  Dataset train = MakeEmLikeData(120, 31);
  Dataset valid = MakeEmLikeData(60, 32);
  HoldoutEvaluator e1(train, valid);
  HoldoutEvaluator e2(train, valid);
  auto r1 = SmacSearch(space, &e1, options);
  auto r2 = SmacSearch(space, &e2, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  SearchOutcome o1 = std::move(*r1);
  SearchOutcome o2 = std::move(*r2);
  EXPECT_DOUBLE_EQ(o1.best_valid_f1, o2.best_valid_f1);
  EXPECT_EQ(o1.best_config, o2.best_config);
}

// ---- AutoML-EM facade ---------------------------------------------------------------------

TEST(AutoMlEmTest, RunsEndToEndAndRefits) {
  Dataset all = MakeEmLikeData(400, 33);
  AutoMlEmOptions options;
  options.max_evaluations = 8;
  auto result = RunAutoMlEm(all, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->best_valid_f1, 0.0);
  EXPECT_EQ(result->trajectory.size(), 8u);
  Dataset test = MakeEmLikeData(150, 34);
  double f1 = F1Score(test.y, result->model.Predict(test.X));
  EXPECT_GT(f1, 0.3);
  EXPECT_NE(result->BestPipelineString().find("random_forest"),
            std::string::npos);
}

TEST(AutoMlEmTest, RandomAlgorithmAlsoWorks) {
  Dataset all = MakeEmLikeData(250, 35);
  AutoMlEmOptions options;
  options.max_evaluations = 6;
  options.algorithm = SearchAlgorithm::kRandom;
  auto result = RunAutoMlEm(all, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trajectory.size(), 6u);
}

TEST(AutoMlEmTest, RejectsEmptyInput) {
  Dataset empty;
  AutoMlEmOptions options;
  EXPECT_FALSE(RunAutoMlEm(empty, Dataset{}, options).ok());
}

TEST(AutoMlEmTest, MismatchedWidthsRejected) {
  Dataset train = MakeEmLikeData(50, 36);
  Dataset valid;
  valid.X = Matrix(10, 3);
  valid.y.assign(10, 0);
  AutoMlEmOptions options;
  EXPECT_FALSE(RunAutoMlEm(train, valid, options).ok());
}

}  // namespace
}  // namespace autoem
