#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "fault/failpoint.h"
#include "ml/metrics.h"
#include "ml/models/adaboost.h"
#include "ml/models/decision_tree.h"
#include "ml/models/gradient_boosting.h"
#include "ml/models/knn.h"
#include "ml/models/linear_svm.h"
#include "ml/models/logistic_regression.h"
#include "ml/models/mlp.h"
#include "ml/models/model_registry.h"
#include "ml/models/naive_bayes.h"
#include "ml/models/random_forest.h"
#include "obs/metrics.h"

namespace autoem {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Two gaussian blobs, linearly separable with margin.
Dataset MakeBlobs(size_t n_per_class, uint64_t seed, double separation = 3.0,
                  size_t dims = 4) {
  Rng rng(seed);
  Dataset d;
  d.X = Matrix(2 * n_per_class, dims);
  d.y.resize(2 * n_per_class);
  for (size_t i = 0; i < 2 * n_per_class; ++i) {
    int label = i < n_per_class ? 1 : 0;
    d.y[i] = label;
    for (size_t c = 0; c < dims; ++c) {
      double center = label == 1 ? separation : 0.0;
      d.X.At(i, c) = rng.Normal(center, 1.0);
    }
  }
  return d;
}

// XOR-style dataset that linear models cannot solve but trees can.
Dataset MakeXor(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  d.X = Matrix(n, 2);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.Uniform(-1, 1);
    double x1 = rng.Uniform(-1, 1);
    d.X.At(i, 0) = x0;
    d.X.At(i, 1) = x1;
    d.y[i] = (x0 * x1 > 0) ? 1 : 0;
  }
  return d;
}

std::unique_ptr<Classifier> MakeModel(const std::string& name) {
  ParamMap params;
  if (name == "random_forest" || name == "extra_trees") {
    params["n_estimators"] = 25;
  }
  if (name == "gradient_boosting" || name == "adaboost") {
    params["n_estimators"] = 40;
  }
  if (name == "mlp") params["epochs"] = 40;
  auto model = CreateClassifier(name, params);
  EXPECT_TRUE(model.ok()) << name;
  return std::move(*model);
}

// ---- parameterized over the whole zoo ------------------------------------------

class AllModelsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModelsTest, LearnsSeparableBlobs) {
  Dataset train = MakeBlobs(80, 1);
  Dataset test = MakeBlobs(40, 2);
  auto model = MakeModel(GetParam());
  ASSERT_TRUE(model->Fit(train.X, train.y).ok());
  double acc = Accuracy(test.y, model->Predict(test.X));
  EXPECT_GE(acc, 0.9) << GetParam();
}

TEST_P(AllModelsTest, ProbabilitiesAreInRange) {
  Dataset train = MakeBlobs(50, 3);
  auto model = MakeModel(GetParam());
  ASSERT_TRUE(model->Fit(train.X, train.y).ok());
  for (double p : model->PredictProba(train.X)) {
    EXPECT_GE(p, 0.0) << GetParam();
    EXPECT_LE(p, 1.0) << GetParam();
  }
}

TEST_P(AllModelsTest, RejectsEmptyInput) {
  auto model = MakeModel(GetParam());
  Matrix empty;
  EXPECT_FALSE(model->Fit(empty, {}).ok()) << GetParam();
}

TEST_P(AllModelsTest, RejectsShapeMismatch) {
  auto model = MakeModel(GetParam());
  Matrix X(4, 2);
  std::vector<int> y = {1, 0};  // wrong length
  EXPECT_FALSE(model->Fit(X, y).ok()) << GetParam();
}

TEST_P(AllModelsTest, CloneConfigProducesTrainableCopy) {
  Dataset train = MakeBlobs(40, 4);
  auto model = MakeModel(GetParam());
  auto clone = model->CloneConfig();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), model->name());
  ASSERT_TRUE(clone->Fit(train.X, train.y).ok());
  EXPECT_EQ(clone->PredictProba(train.X).size(), train.size());
}

TEST_P(AllModelsTest, DeterministicGivenSameData) {
  Dataset train = MakeBlobs(40, 5);
  auto m1 = MakeModel(GetParam());
  auto m2 = MakeModel(GetParam());
  ASSERT_TRUE(m1->Fit(train.X, train.y).ok());
  ASSERT_TRUE(m2->Fit(train.X, train.y).ok());
  std::vector<double> p1 = m1->PredictProba(train.X);
  std::vector<double> p2 = m2->PredictProba(train.X);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_DOUBLE_EQ(p1[i], p2[i]);
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, AllModelsTest,
                         ::testing::ValuesIn(AllModelNames()));

// ---- trees ------------------------------------------------------------------------

TEST(DecisionTreeTest, PureLeafStopsEarly) {
  Matrix X(4, 1);
  for (size_t i = 0; i < 4; ++i) X.At(i, 0) = static_cast<double>(i);
  std::vector<int> y = {1, 1, 1, 1};
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(X, y).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictProba(X)[0], 1.0);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Dataset d = MakeXor(300, 6);
  TreeOptions opt;
  opt.max_depth = 2;
  DecisionTreeClassifier tree(opt);
  ASSERT_TRUE(tree.Fit(d.X, d.y).ok());
  EXPECT_LE(tree.Depth(), 2u);
}

TEST(DecisionTreeTest, SolvesXor) {
  Dataset train = MakeXor(400, 7);
  Dataset test = MakeXor(200, 8);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(train.X, train.y).ok());
  EXPECT_GE(Accuracy(test.y, tree.Predict(test.X)), 0.9);
}

TEST(DecisionTreeTest, EntropyCriterionWorks) {
  TreeOptions opt;
  opt.criterion = "entropy";
  Dataset train = MakeBlobs(50, 9);
  DecisionTreeClassifier tree(opt);
  ASSERT_TRUE(tree.Fit(train.X, train.y).ok());
  EXPECT_GE(Accuracy(train.y, tree.Predict(train.X)), 0.95);
}

TEST(DecisionTreeTest, NaNRoutesConsistently) {
  // Train with NaNs; prediction must be deterministic and not crash.
  Matrix X(6, 1);
  X.At(0, 0) = kNaN;
  X.At(1, 0) = kNaN;
  X.At(2, 0) = 1.0;
  X.At(3, 0) = 1.1;
  X.At(4, 0) = 0.9;
  X.At(5, 0) = kNaN;
  std::vector<int> y = {0, 0, 1, 1, 1, 0};
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(X, y).ok());
  // NaN rows were all negative; a NaN query should be classified negative.
  Matrix q(1, 1);
  q.At(0, 0) = kNaN;
  EXPECT_LT(tree.PredictProba(q)[0], 0.5);
  q.At(0, 0) = 1.0;
  EXPECT_GT(tree.PredictProba(q)[0], 0.5);
}

TEST(DecisionTreeTest, SampleWeightsShiftDecision) {
  // Conflicting labels at the same x; weights decide the leaf probability.
  Matrix X(2, 1);
  X.At(0, 0) = 1.0;
  X.At(1, 0) = 1.0;
  std::vector<int> y = {1, 0};
  std::vector<double> w_pos = {10.0, 1.0};
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(X, y, &w_pos).ok());
  EXPECT_GT(tree.PredictProba(X)[0], 0.5);
  std::vector<double> w_neg = {1.0, 10.0};
  ASSERT_TRUE(tree.Fit(X, y, &w_neg).ok());
  EXPECT_LT(tree.PredictProba(X)[0], 0.5);
}

TEST(DecisionTreeTest, MinImpurityDecreaseBlocksWeakSplits) {
  Dataset d = MakeBlobs(50, 10, /*separation=*/0.1);  // barely separable
  TreeOptions opt;
  opt.min_impurity_decrease = 0.49;  // basically unreachable for gini
  DecisionTreeClassifier tree(opt);
  ASSERT_TRUE(tree.Fit(d.X, d.y).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
}

// One +inf weight on a 6-row probe used to fit "OK" and then predict NaN:
// every impurity and leaf probability it touched became NaN.
TEST(DecisionTreeTest, NonFiniteSampleWeightsRejected) {
  Matrix X(6, 1);
  for (size_t i = 0; i < 6; ++i) X.At(i, 0) = static_cast<double>(i);
  std::vector<int> y = {0, 0, 0, 1, 1, 1};
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), kNaN}) {
    std::vector<double> w(6, 1.0);
    w[2] = bad;
    DecisionTreeClassifier tree;
    EXPECT_EQ(tree.Fit(X, y, &w).code(), StatusCode::kInvalidArgument) << bad;
    RandomForestOptions opt;
    opt.n_estimators = 3;
    RandomForestClassifier rf(opt);
    EXPECT_EQ(rf.Fit(X, y, &w).code(), StatusCode::kInvalidArgument) << bad;
  }
}

// RegressionTree (gradient boosting, the SMAC surrogate) read w[i] for
// every row without checking the weight vector's length: a heap over-read
// under ASan.
TEST(RegressionTreeTest, MismatchedOrNonFiniteWeightsRejected) {
  Matrix X(6, 1);
  std::vector<double> y(6);
  for (size_t i = 0; i < 6; ++i) {
    X.At(i, 0) = static_cast<double>(i);
    y[i] = i < 3 ? 0.0 : 1.0;
  }
  const std::vector<double> short_w(3, 1.0);
  const std::vector<double> inf_w = {1, 1, 1, 1,
                                     std::numeric_limits<double>::infinity(),
                                     1};
  RegressionTree tree;
  EXPECT_EQ(tree.Fit(X, y, &short_w).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.Fit(X, y, &inf_w).code(), StatusCode::kInvalidArgument);
}

TEST(RegressionTreeTest, FitsPiecewiseConstant) {
  Matrix X(100, 1);
  std::vector<double> y(100);
  for (size_t i = 0; i < 100; ++i) {
    X.At(i, 0) = static_cast<double>(i);
    y[i] = i < 50 ? 1.0 : 5.0;
  }
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(X, y).ok());
  Matrix q(2, 1);
  q.At(0, 0) = 10.0;
  q.At(1, 0) = 90.0;
  std::vector<double> pred = tree.Predict(q);
  EXPECT_NEAR(pred[0], 1.0, 0.01);
  EXPECT_NEAR(pred[1], 5.0, 0.01);
}

TEST(RegressionTreeTest, ConstantTargetIsSingleLeaf) {
  Matrix X(10, 2);
  std::vector<double> y(10, 3.0);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(X, y).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictRow(X.RowPtr(0)), 3.0);
}

// ---- random forest ------------------------------------------------------------------

TEST(RandomForestTest, BuildsRequestedTrees) {
  RandomForestOptions opt;
  opt.n_estimators = 13;
  RandomForestClassifier rf(opt);
  Dataset d = MakeBlobs(30, 11);
  ASSERT_TRUE(rf.Fit(d.X, d.y).ok());
  EXPECT_EQ(rf.NumTrees(), 13u);
}

TEST(RandomForestTest, VoteConfidenceRange) {
  RandomForestOptions opt;
  opt.n_estimators = 21;
  RandomForestClassifier rf(opt);
  Dataset d = MakeBlobs(40, 12, /*separation=*/1.0);
  ASSERT_TRUE(rf.Fit(d.X, d.y).ok());
  for (double c : rf.VoteConfidence(d.X)) {
    EXPECT_GE(c, 0.5 - 1e-12);
    EXPECT_LE(c, 1.0 + 1e-12);
  }
}

TEST(RandomForestTest, ConfidenceHigherFarFromBoundary) {
  // Paper Fig. 7: points far from the decision boundary get consistent
  // votes (self-training candidates); boundary points disagree.
  RandomForestOptions opt;
  opt.n_estimators = 31;
  RandomForestClassifier rf(opt);
  Dataset d = MakeBlobs(150, 13, /*separation=*/2.0, /*dims=*/2);
  ASSERT_TRUE(rf.Fit(d.X, d.y).ok());
  Matrix probe(2, 2);
  probe.At(0, 0) = 5.0;   // deep in the positive blob
  probe.At(0, 1) = 5.0;
  probe.At(1, 0) = 1.0;   // between the blobs
  probe.At(1, 1) = 1.0;
  std::vector<double> conf = rf.VoteConfidence(probe);
  EXPECT_GT(conf[0], conf[1]);
}

TEST(RandomForestTest, ExtraTreesModeWorks) {
  RandomForestOptions opt;
  opt.random_thresholds = true;
  opt.bootstrap = false;
  opt.n_estimators = 25;
  RandomForestClassifier et(opt);
  Dataset train = MakeBlobs(60, 14);
  ASSERT_TRUE(et.Fit(train.X, train.y).ok());
  EXPECT_EQ(et.name(), "extra_trees");
  EXPECT_GE(Accuracy(train.y, et.Predict(train.X)), 0.9);
}

TEST(RandomForestTest, SingleClassTrainingIsHandled) {
  Matrix X(5, 2);
  std::vector<int> y(5, 1);
  RandomForestOptions opt;
  opt.n_estimators = 5;
  RandomForestClassifier rf(opt);
  ASSERT_TRUE(rf.Fit(X, y).ok());
  for (double p : rf.PredictProba(X)) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(RandomForestTest, DegenerateBootstrapRetriesOnUnresampledWeights) {
  // Two rows, one of them with caller weight zero: any bootstrap draw that
  // lands only on the zero-weight row leaves no surviving weight, which the
  // tree rejects with InvalidArgument. Fit must absorb exactly those by
  // retrying on the unresampled weights — and count them — rather than
  // failing the whole forest.
  auto* retries = obs::MetricsRegistry::Global().GetCounter(
      "ml.rf_degenerate_bootstrap_retries");
  uint64_t before = retries->Total();
  Matrix X(2, 2);
  X.At(0, 0) = 0.0;
  X.At(1, 0) = 1.0;
  std::vector<int> y = {1, 0};
  std::vector<double> weights = {1.0, 0.0};
  RandomForestOptions opt;
  opt.n_estimators = 40;
  opt.seed = 5;
  RandomForestClassifier rf(opt);
  ASSERT_TRUE(rf.Fit(X, y, &weights).ok());
  EXPECT_EQ(rf.NumTrees(), 40u);
  // With 40 two-row bootstraps, draws hitting only the zero-weight row
  // occur many times (deterministically, for the fixed seed).
  EXPECT_GT(retries->Total(), before);
}

TEST(RandomForestTest, InjectedTreeErrorPropagatesInsteadOfRetrying) {
  // Regression test for the retry bug: Fit used to re-run *any* failed tree
  // on the unresampled weights, which silently swallowed injected faults
  // (and real errors) by training on different data. Only the degenerate
  // bootstrap case may retry; an injected Internal error must surface.
  fault::FailpointRegistry::Global().Arm(
      "tree.fit", fault::FailpointSpec::Error(StatusCode::kInternal,
                                              "injected tree fault"));
  Dataset d = MakeBlobs(20, 19);
  RandomForestOptions opt;
  opt.n_estimators = 4;
  RandomForestClassifier rf(opt);
  Status st = rf.Fit(d.X, d.y);
  fault::FailpointRegistry::Global().DisarmAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(RandomForestTest, InjectedInvalidArgumentOnHealthyBootstrapPropagates) {
  // Even an InvalidArgument must propagate when the bootstrap itself is
  // healthy (both classes survive): the retry is gated on the *data* being
  // degenerate, not on the status code alone. 40 balanced rows make a
  // single-class bootstrap draw effectively impossible (and the draw is
  // deterministic for a fixed seed).
  fault::FailpointRegistry::Global().Arm(
      "tree.fit",
      fault::FailpointSpec::Error(StatusCode::kInvalidArgument,
                                  "injected invalid-argument"));
  Dataset d = MakeBlobs(20, 21);
  RandomForestOptions opt;
  opt.n_estimators = 3;
  opt.seed = 11;
  RandomForestClassifier rf(opt);
  Status st = rf.Fit(d.X, d.y);
  fault::FailpointRegistry::Global().DisarmAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("injected"), std::string::npos);
}

// ---- boosting ------------------------------------------------------------------------

TEST(AdaBoostTest, BoostsBeyondStumpOnXor) {
  Dataset train = MakeXor(400, 15);
  Dataset test = MakeXor(200, 16);
  // A single stump cannot solve XOR...
  TreeOptions stump_opt;
  stump_opt.max_depth = 1;
  DecisionTreeClassifier stump(stump_opt);
  ASSERT_TRUE(stump.Fit(train.X, train.y).ok());
  double stump_acc = Accuracy(test.y, stump.Predict(test.X));
  // ...but boosted depth-2 learners can.
  AdaBoostOptions opt;
  opt.n_estimators = 60;
  opt.base_max_depth = 2;
  AdaBoostClassifier ada(opt);
  ASSERT_TRUE(ada.Fit(train.X, train.y).ok());
  double ada_acc = Accuracy(test.y, ada.Predict(test.X));
  EXPECT_GT(ada_acc, stump_acc);
  EXPECT_GE(ada_acc, 0.85);
}

TEST(AdaBoostTest, StopsOnPerfectLearner) {
  Dataset d = MakeBlobs(30, 17, /*separation=*/10.0);
  AdaBoostOptions opt;
  opt.n_estimators = 50;
  opt.base_max_depth = 3;
  AdaBoostClassifier ada(opt);
  ASSERT_TRUE(ada.Fit(d.X, d.y).ok());
  EXPECT_LT(ada.NumLearners(), 50u);  // early stop once error ~ 0
}

TEST(GradientBoostingTest, MoreStagesFitBetter) {
  Dataset train = MakeXor(300, 18);
  GradientBoostingOptions small;
  small.n_estimators = 3;
  GradientBoostingOptions large;
  large.n_estimators = 80;
  GradientBoostingClassifier gb_small(small);
  GradientBoostingClassifier gb_large(large);
  ASSERT_TRUE(gb_small.Fit(train.X, train.y).ok());
  ASSERT_TRUE(gb_large.Fit(train.X, train.y).ok());
  EXPECT_GE(Accuracy(train.y, gb_large.Predict(train.X)),
            Accuracy(train.y, gb_small.Predict(train.X)));
}

TEST(GradientBoostingTest, SubsampleStillLearns) {
  GradientBoostingOptions opt;
  opt.subsample = 0.6;
  opt.n_estimators = 60;
  GradientBoostingClassifier gb(opt);
  Dataset train = MakeBlobs(80, 19);
  ASSERT_TRUE(gb.Fit(train.X, train.y).ok());
  EXPECT_GE(Accuracy(train.y, gb.Predict(train.X)), 0.95);
}

// ---- instance / linear / probabilistic ---------------------------------------------------

TEST(KnnTest, OneNeighborMemorizes) {
  KnnOptions opt;
  opt.n_neighbors = 1;
  KnnClassifier knn(opt);
  Dataset d = MakeBlobs(30, 20);
  ASSERT_TRUE(knn.Fit(d.X, d.y).ok());
  EXPECT_DOUBLE_EQ(Accuracy(d.y, knn.Predict(d.X)), 1.0);
}

TEST(KnnTest, DistanceWeightingWorks) {
  KnnOptions opt;
  opt.n_neighbors = 5;
  opt.weights = "distance";
  KnnClassifier knn(opt);
  Dataset d = MakeBlobs(40, 21);
  ASSERT_TRUE(knn.Fit(d.X, d.y).ok());
  EXPECT_GE(Accuracy(d.y, knn.Predict(d.X)), 0.95);
}

TEST(LogisticRegressionTest, WeightsReflectFeatureImportance) {
  // Feature 0 is informative, feature 1 is noise.
  Rng rng(22);
  Matrix X(200, 2);
  std::vector<int> y(200);
  for (size_t i = 0; i < 200; ++i) {
    y[i] = i % 2;
    X.At(i, 0) = y[i] == 1 ? 2.0 + rng.Normal(0, 0.5) : rng.Normal(0, 0.5);
    X.At(i, 1) = rng.Normal(0, 1.0);
  }
  LogisticRegressionClassifier lr;
  ASSERT_TRUE(lr.Fit(X, y).ok());
  EXPECT_GT(std::fabs(lr.weights()[0]), std::fabs(lr.weights()[1]));
}

TEST(LinearSvmTest, DecisionFunctionSignMatchesPrediction) {
  Dataset d = MakeBlobs(60, 23);
  LinearSvmClassifier svm;
  ASSERT_TRUE(svm.Fit(d.X, d.y).ok());
  std::vector<double> margins = svm.DecisionFunction(d.X);
  std::vector<int> preds = svm.Predict(d.X);
  for (size_t i = 0; i < margins.size(); ++i) {
    EXPECT_EQ(preds[i], margins[i] >= 0 ? 1 : 0);
  }
}

TEST(GaussianNbTest, RequiresBothClasses) {
  Matrix X(4, 1);
  std::vector<int> y(4, 1);
  GaussianNbClassifier nb;
  EXPECT_FALSE(nb.Fit(X, y).ok());
}

TEST(GaussianNbTest, SkipsNaNFeatures) {
  Matrix X(6, 2);
  std::vector<int> y = {1, 1, 1, 0, 0, 0};
  for (size_t i = 0; i < 6; ++i) {
    X.At(i, 0) = y[i] == 1 ? 2.0 + 0.1 * i : -2.0 - 0.1 * i;
    X.At(i, 1) = kNaN;
  }
  GaussianNbClassifier nb;
  ASSERT_TRUE(nb.Fit(X, y).ok());
  EXPECT_GE(Accuracy(y, nb.Predict(X)), 0.99);
}

TEST(MlpTest, TwoLayersSolveXor) {
  Dataset train = MakeXor(500, 24);
  Dataset test = MakeXor(200, 25);
  MlpOptions opt;
  opt.hidden_sizes = {32};
  opt.epochs = 150;
  MlpClassifier mlp(opt);
  ASSERT_TRUE(mlp.Fit(train.X, train.y).ok());
  EXPECT_GE(Accuracy(test.y, mlp.Predict(test.X)), 0.85);
}

// ---- registry -----------------------------------------------------------------------------

TEST(ModelRegistryTest, AllNamesInstantiable) {
  for (const auto& name : AllModelNames()) {
    auto model = CreateClassifier(name, ParamMap{});
    EXPECT_TRUE(model.ok()) << name;
  }
}

TEST(ModelRegistryTest, UnknownNameRejected) {
  auto model = CreateClassifier("quantum_matcher", ParamMap{});
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, HyperparametersArePassedThrough) {
  ParamMap params;
  params["n_estimators"] = 7;
  auto model = CreateClassifier("random_forest", params);
  ASSERT_TRUE(model.ok());
  Dataset d = MakeBlobs(20, 26);
  ASSERT_TRUE((*model)->Fit(d.X, d.y).ok());
  auto* rf = dynamic_cast<RandomForestClassifier*>(model->get());
  ASSERT_NE(rf, nullptr);
  EXPECT_EQ(rf->NumTrees(), 7u);
}

}  // namespace
}  // namespace autoem
