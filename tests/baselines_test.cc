#include <gtest/gtest.h>

#include "baselines/deep_matcher.h"
#include "baselines/magellan_matcher.h"
#include "datagen/benchmark_gen.h"

namespace autoem {
namespace {

// ---- Magellan baseline -----------------------------------------------------------

TEST(MagellanMatcherTest, TrainsAndPicksAModel) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 1, 0.4);
  ASSERT_TRUE(data.ok());
  MagellanMatcher::Options options;
  auto matcher = MagellanMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok()) << matcher.status().ToString();
  EXPECT_FALSE(matcher->best_model_name().empty());
  EXPECT_GE(matcher->valid_f1(), 0.0);
  // Every offered model got a validation score.
  EXPECT_GE(matcher->model_scores().size(), 3u);
}

TEST(MagellanMatcherTest, DecentF1OnEasyData) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 2, 0.4);
  ASSERT_TRUE(data.ok());
  MagellanMatcher::Options options;
  auto matcher = MagellanMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  auto report = matcher->Evaluate(data->test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->f1, 0.75);
}

TEST(MagellanMatcherTest, BestModelMaximizesValidationScore) {
  auto data = GenerateBenchmarkByName("iTunes-Amazon", 3, 0.5);
  ASSERT_TRUE(data.ok());
  MagellanMatcher::Options options;
  auto matcher = MagellanMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  for (const auto& [name, f1] : matcher->model_scores()) {
    EXPECT_LE(f1, matcher->valid_f1() + 1e-12) << name;
  }
}

TEST(MagellanMatcherTest, CustomModelListHonored) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 4, 0.2);
  ASSERT_TRUE(data.ok());
  MagellanMatcher::Options options;
  options.models = {"decision_tree"};
  auto matcher = MagellanMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ(matcher->best_model_name(), "decision_tree");
}

TEST(MagellanMatcherTest, EmptyInputsRejected) {
  PairSet empty;
  MagellanMatcher::Options options;
  EXPECT_FALSE(MagellanMatcher::Train(empty, options).ok());
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 5, 0.1);
  ASSERT_TRUE(data.ok());
  options.models = {};
  EXPECT_FALSE(MagellanMatcher::Train(data->train, options).ok());
}

// Copies of `pairs` with one pair's left or right id past its table, by
// one and by a million rows: every baseline entry point must reject them
// with InvalidArgument, as EntityMatcher's do, instead of reading past a
// table.
std::vector<PairSet> OutOfRangePairs(const PairSet& pairs) {
  std::vector<PairSet> out;
  for (size_t past : {size_t{0}, size_t{1000000}}) {
    PairSet left = pairs;
    left.pairs.back().left_id = left.left.num_rows() + past;
    out.push_back(std::move(left));
    PairSet right = pairs;
    right.pairs.back().right_id = right.right.num_rows() + past;
    out.push_back(std::move(right));
  }
  return out;
}

TEST(MagellanMatcherTest, OutOfRangePairIdsRejected) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 9, 0.1);
  ASSERT_TRUE(data.ok());
  MagellanMatcher::Options options;
  options.models = {"decision_tree"};
  auto matcher = MagellanMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok()) << matcher.status().ToString();
  for (const PairSet& bad : OutOfRangePairs(data->train)) {
    EXPECT_EQ(MagellanMatcher::Train(bad, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (const PairSet& bad : OutOfRangePairs(data->test)) {
    EXPECT_EQ(matcher->ScorePairs(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ---- DeepMatcher stand-in ----------------------------------------------------------

TEST(DeepMatcherTest, RepresentationDimMatchesFormula) {
  auto data = GenerateBenchmarkByName("Abt-Buy", 6, 0.1);
  ASSERT_TRUE(data.ok());
  DeepMatcherModel::Options options;
  options.embedding_dim = 16;
  options.epochs = 5;
  auto model = DeepMatcherModel::Train(data->train, options);
  ASSERT_TRUE(model.ok());
  // 3 attributes * 2 token families * (2 compositions * 16 dims + 2
  // summary scalars).
  EXPECT_EQ(model->representation_dim(), 3u * 2u * (2u * 16u + 2u));
  // The dev-tuned threshold is a valid probability.
  EXPECT_GT(model->tuned_threshold(), 0.0);
  EXPECT_LT(model->tuned_threshold(), 1.0);
}

TEST(DeepMatcherTest, LearnsEasyBenchmark) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 7, 0.4);
  ASSERT_TRUE(data.ok());
  DeepMatcherModel::Options options;
  options.epochs = 50;
  auto model = DeepMatcherModel::Train(data->train, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto report = model->Evaluate(data->test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->f1, 0.6);
}

TEST(DeepMatcherTest, ScoresAreProbabilities) {
  auto data = GenerateBenchmarkByName("iTunes-Amazon", 8, 0.3);
  ASSERT_TRUE(data.ok());
  DeepMatcherModel::Options options;
  options.epochs = 10;
  auto model = DeepMatcherModel::Train(data->train, options);
  ASSERT_TRUE(model.ok());
  auto scores = model->ScorePairs(data->test);
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(DeepMatcherTest, OutOfRangePairIdsRejected) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 10, 0.1);
  ASSERT_TRUE(data.ok());
  DeepMatcherModel::Options options;
  options.epochs = 5;
  auto model = DeepMatcherModel::Train(data->train, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  for (const PairSet& bad : OutOfRangePairs(data->train)) {
    EXPECT_EQ(DeepMatcherModel::Train(bad, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (const PairSet& bad : OutOfRangePairs(data->test)) {
    EXPECT_EQ(model->ScorePairs(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DeepMatcherTest, EmptyTrainingRejected) {
  PairSet empty;
  DeepMatcherModel::Options options;
  EXPECT_FALSE(DeepMatcherModel::Train(empty, options).ok());
}

}  // namespace
}  // namespace autoem
