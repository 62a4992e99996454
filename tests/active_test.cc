#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "active/active_learner.h"
#include "active/oracle.h"
#include "common/rng.h"
#include "ml/metrics.h"

namespace autoem {
namespace {

// An EM-like pool: imbalanced, learnable from a handful of features.
Dataset MakePool(size_t n, uint64_t seed, double noise = 1.0) {
  Rng rng(seed);
  Dataset d;
  const size_t dims = 6;
  d.X = Matrix(n, dims);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.2) ? 1 : 0;
    d.y[i] = label;
    for (size_t c = 0; c < dims; ++c) {
      double center = (c < 3 && label == 1) ? 1.5 : 0.0;
      d.X.At(i, c) = rng.Normal(center, noise);
    }
  }
  for (size_t c = 0; c < dims; ++c) {
    d.feature_names.push_back("f" + std::to_string(c));
  }
  return d;
}

ActiveLearningOptions FastOptions() {
  ActiveLearningOptions options;
  options.init_size = 60;
  options.ac_batch = 10;
  options.st_batch = 40;
  options.label_budget = 120;
  options.max_iterations = 5;
  options.model.n_estimators = 15;
  options.run_automl_at_end = false;
  options.seed = 7;
  return options;
}

// ---- oracles ---------------------------------------------------------------------

TEST(OracleTest, GroundTruthReturnsLabelsAndCounts) {
  GroundTruthOracle oracle({1, 0, 1});
  EXPECT_EQ(oracle.Label(0), 1);
  EXPECT_EQ(oracle.Label(1), 0);
  EXPECT_EQ(oracle.num_queries(), 2u);
}

TEST(OracleTest, NoisyOracleFlipsApproximatelyAtRate) {
  std::vector<int> labels(2000, 1);
  NoisyOracle oracle(labels, 0.25, 42);
  size_t flips = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (oracle.Label(i) == 0) ++flips;
  }
  double rate = static_cast<double>(flips) / labels.size();
  EXPECT_NEAR(rate, 0.25, 0.04);
}

TEST(OracleTest, ZeroNoiseIsExact) {
  std::vector<int> labels = {1, 0, 1, 0};
  NoisyOracle oracle(labels, 0.0, 1);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(oracle.Label(i), labels[i]);
  }
}

// ---- the active loop -----------------------------------------------------------------

TEST(ActiveLearnerTest, RespectsLabelBudget) {
  Dataset pool = MakePool(600, 1);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->human_labels_used, options.label_budget);
  EXPECT_EQ(result->human_labels_used, oracle.num_queries());
}

TEST(ActiveLearnerTest, SelfTrainingAddsMachineLabels) {
  Dataset pool = MakePool(600, 2);
  GroundTruthOracle oracle(pool.y);
  auto result = RunAutoMlEmActive(pool, &oracle, FastOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->machine_labels_added, 0u);
  EXPECT_EQ(result->collected.size(),
            result->human_labels_used + result->machine_labels_added);
  size_t machine_count = 0;
  for (bool m : result->is_machine_label) machine_count += m;
  EXPECT_EQ(machine_count, result->machine_labels_added);
}

TEST(ActiveLearnerTest, ZeroStBatchIsPlainActiveLearning) {
  // Paper remark (1): st_batch = 0 reduces to AC + AutoML-EM.
  Dataset pool = MakePool(400, 3);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  options.st_batch = 0;
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->machine_labels_added, 0u);
  for (bool m : result->is_machine_label) EXPECT_FALSE(m);
}

TEST(ActiveLearnerTest, MachineLabelsAreMostlyCorrectWithGoodInit) {
  // Paper §V-D: with a reasonable initial model, self-training labels the
  // high-confidence region accurately.
  Dataset pool = MakePool(900, 4, /*noise=*/0.7);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  options.init_size = 150;
  options.label_budget = 250;
  auto result =
      RunAutoMlEmActive(pool, &oracle, options, nullptr, &pool.y);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->machine_labels_added, 0u);
  EXPECT_GT(result->machine_label_accuracy, 0.9);
}

TEST(ActiveLearnerTest, ClassRatioPreservedInSelfTraining) {
  // Paper remark (2): the collected machine labels keep roughly the initial
  // positive ratio alpha.
  Dataset pool = MakePool(900, 5, /*noise=*/0.7);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  options.init_size = 150;
  options.label_budget = 250;
  options.st_batch = 60;
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_TRUE(result.ok());
  size_t machine_pos = 0, machine_total = 0;
  for (size_t i = 0; i < result->collected.size(); ++i) {
    if (result->is_machine_label[i]) {
      ++machine_total;
      machine_pos += (result->collected.y[i] == 1);
    }
  }
  ASSERT_GT(machine_total, 0u);
  double machine_ratio =
      static_cast<double>(machine_pos) / static_cast<double>(machine_total);
  EXPECT_NEAR(machine_ratio, 0.2, 0.12);  // pool alpha ~ 0.2
}

TEST(ActiveLearnerTest, NaiveModeSkewsTowardConfidentMajority) {
  // Without ratio preservation the self-training batch is free to be
  // dominated by the majority class.
  Dataset pool = MakePool(900, 6, /*noise=*/0.7);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  options.init_size = 150;
  options.label_budget = 250;
  options.preserve_class_ratio = false;
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->machine_labels_added, 0u);
}

TEST(ActiveLearnerTest, IterationStatsAreMonotone) {
  Dataset pool = MakePool(500, 7);
  Dataset test = MakePool(200, 8);
  GroundTruthOracle oracle(pool.y);
  auto result = RunAutoMlEmActive(pool, &oracle, FastOptions(), &test);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->iterations.size(), 2u);
  for (size_t i = 1; i < result->iterations.size(); ++i) {
    EXPECT_GE(result->iterations[i].human_labels,
              result->iterations[i - 1].human_labels);
    EXPECT_GE(result->iterations[i].machine_labels,
              result->iterations[i - 1].machine_labels);
    EXPECT_GE(result->iterations[i].iteration_model_test_f1, 0.0);
  }
}

TEST(ActiveLearnerTest, FinalAutoMlRunsWhenRequested) {
  Dataset pool = MakePool(500, 9);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  options.run_automl_at_end = true;
  options.automl.max_evaluations = 4;
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->automl.has_value());
  Dataset test = MakePool(200, 10);
  double f1 = F1Score(test.y, result->automl->model.Predict(test.X));
  EXPECT_GT(f1, 0.3);
}

TEST(ActiveLearnerTest, InvalidInputsRejected) {
  Dataset pool = MakePool(50, 11);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  EXPECT_FALSE(RunAutoMlEmActive(Dataset{}, &oracle, options).ok());
  EXPECT_FALSE(RunAutoMlEmActive(pool, nullptr, options).ok());
  options.init_size = 0;
  EXPECT_FALSE(RunAutoMlEmActive(pool, &oracle, options).ok());
}

// Regression: n_init == 0 must surface as InvalidArgument, never reach the
// α = positives / n_init division (which would silently produce NaN and
// poison every downstream class-ratio decision).
TEST(ActiveLearnerTest, ZeroInitialSampleIsInvalidArgumentNotNaN) {
  Dataset pool = MakePool(50, 11);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();

  options.init_size = 0;
  auto zero_init = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_FALSE(zero_init.ok());
  EXPECT_EQ(zero_init.status().code(), StatusCode::kInvalidArgument);

  options = FastOptions();
  auto empty_pool = RunAutoMlEmActive(Dataset{}, &oracle, options);
  ASSERT_FALSE(empty_pool.ok());
  EXPECT_EQ(empty_pool.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(oracle.num_queries(), 0u);  // rejected before any labeling
}

// Regression: the budget counts the initial sample, so an initial sample
// larger than the budget is rejected before the oracle is asked anything;
// it used to spend all init_size labels and return OK.
TEST(ActiveLearnerTest, InitialSampleOverBudgetIsRejectedBeforeAnyQuery) {
  Dataset pool = MakePool(300, 11);
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  options.init_size = 100;
  options.label_budget = 40;
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("100"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("40"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(oracle.num_queries(), 0u);

  // A budget of exactly the initial sample is spent on it, and no more.
  options.label_budget = 100;
  GroundTruthOracle exact(pool.y);
  result = RunAutoMlEmActive(pool, &exact, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->human_labels_used, 100u);
  EXPECT_EQ(exact.num_queries(), 100u);
}

// Refits derive their split ranks from the pool's, but Extra-Trees never
// scans, so its session builds no ranks at all and still runs to budget.
TEST(ActiveLearnerTest, ExtraTreesSessionRunsWithoutRanks) {
  Dataset pool = MakePool(400, 17);
  ActiveLearningOptions options = FastOptions();
  options.model.random_thresholds = true;
  options.model.bootstrap = false;
  options.max_iterations = 6;  // 60 initial labels + 6 batches of 10
  GroundTruthOracle oracle(pool.y);
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->human_labels_used, options.label_budget);
}

TEST(ActiveLearnerTest, PoolExhaustionStopsGracefully) {
  Dataset pool = MakePool(80, 12);  // tiny pool, generous budget
  GroundTruthOracle oracle(pool.y);
  ActiveLearningOptions options = FastOptions();
  options.init_size = 30;
  options.label_budget = 10000;
  options.max_iterations = 50;
  auto result = RunAutoMlEmActive(pool, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->collected.size(), pool.size());
}

TEST(ActiveLearnerTest, SelfTrainingImprovesOverPlainActiveLearning) {
  // The paper's core §V-D claim, reproduced in miniature: with the same
  // human budget, AutoML-EM-Active >= AC on a learnable pool.
  Dataset pool = MakePool(1200, 13, /*noise=*/1.1);
  Dataset test = MakePool(400, 14, /*noise=*/1.1);

  ActiveLearningOptions with_st = FastOptions();
  with_st.init_size = 120;
  with_st.st_batch = 80;
  with_st.max_iterations = 6;
  ActiveLearningOptions without_st = with_st;
  without_st.st_batch = 0;

  double f1_with = 0.0, f1_without = 0.0;
  int wins = 0;
  for (uint64_t seed : {21, 22, 23}) {
    with_st.seed = seed;
    without_st.seed = seed;
    GroundTruthOracle o1(pool.y);
    GroundTruthOracle o2(pool.y);
    auto r1 = RunAutoMlEmActive(pool, &o1, with_st, &test);
    auto r2 = RunAutoMlEmActive(pool, &o2, without_st, &test);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    f1_with = r1->iterations.back().iteration_model_test_f1;
    f1_without = r2->iterations.back().iteration_model_test_f1;
    if (f1_with >= f1_without - 0.02) ++wins;
  }
  // Self-training should not lose across the majority of seeds.
  EXPECT_GE(wins, 2);
}

}  // namespace
}  // namespace autoem
