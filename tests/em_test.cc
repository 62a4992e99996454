#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/benchmark_gen.h"
#include "em/blocking.h"
#include "em/matcher.h"
#include "em/pairs_io.h"

namespace autoem {
namespace {

Table MakeRestaurants(const std::string& name,
                      const std::vector<std::vector<const char*>>& rows) {
  Table t(name, Schema({"name", "city"}));
  for (const auto& row : rows) {
    EXPECT_TRUE(t.Append(Record({Value(row[0]), Value(row[1])})).ok());
  }
  return t;
}

// ---- blocking -------------------------------------------------------------------

TEST(BlockingTest, AttributeEquivalenceGroupsByKey) {
  Table left = MakeRestaurants(
      "A", {{"arnie mortons", "los angeles"}, {"arts deli", "studio city"}});
  Table right = MakeRestaurants(
      "B",
      {{"arnie mortons of chicago", "Los Angeles"},  // case-insensitive
       {"arts delicatessen", "studio city"},
       {"fenix", "west hollywood"}});
  AttributeEquivalenceBlocker blocker("city");
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 2u);
  for (const auto& p : *pairs) EXPECT_EQ(p.label, -1);
}

TEST(BlockingTest, AttributeEquivalenceSkipsNulls) {
  Table left("A", Schema({"k"}));
  ASSERT_TRUE(left.Append(Record({Value::Null()})).ok());
  Table right("B", Schema({"k"}));
  ASSERT_TRUE(right.Append(Record({Value::Null()})).ok());
  AttributeEquivalenceBlocker blocker("k");
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());  // null keys never pair
}

TEST(BlockingTest, MissingAttributeRejected) {
  Table left = MakeRestaurants("A", {{"x", "y"}});
  Table right = MakeRestaurants("B", {{"x", "y"}});
  AttributeEquivalenceBlocker blocker("bogus");
  EXPECT_FALSE(blocker.Block(left, right).ok());
  QGramBlocker qblocker("bogus");
  EXPECT_FALSE(qblocker.Block(left, right).ok());
}

TEST(BlockingTest, QGramSurvivesTypos) {
  Table left = MakeRestaurants("A", {{"arnie mortons", "la"}});
  Table right = MakeRestaurants("B", {{"arnie mortns", "la"},  // typo
                                      {"zzzz qqqq", "la"}});
  QGramBlocker blocker("name", /*min_shared=*/4);
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 1u);
  EXPECT_EQ((*pairs)[0].right_id, 0u);
}

TEST(BlockingTest, QGramRecallOnGeneratedData) {
  // On the easy restaurant benchmark, q-gram blocking on name should keep
  // nearly all true matches.
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 3, 0.3);
  ASSERT_TRUE(data.ok());
  QGramBlocker blocker("name", 3);
  auto candidates = blocker.Block(data->train.left, data->train.right);
  ASSERT_TRUE(candidates.ok());
  double recall = BlockingRecall(*candidates, data->train.pairs);
  EXPECT_GT(recall, 0.85);
}

TEST(BlockingTest, RecallComputation) {
  std::vector<RecordPair> truth = {{0, 0, 1}, {1, 1, 1}, {2, 2, 0}};
  std::vector<RecordPair> candidates = {{0, 0, -1}, {5, 5, -1}};
  EXPECT_DOUBLE_EQ(BlockingRecall(candidates, truth), 0.5);
  EXPECT_DOUBLE_EQ(BlockingRecall({}, {{0, 0, 0}}), 1.0);  // no true matches
}

// ---- EntityMatcher end-to-end -----------------------------------------------------

TEST(EntityMatcherTest, TrainsAndEvaluatesOnBenchmark) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 4, 0.4);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.automl.max_evaluations = 6;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok()) << matcher.status().ToString();
  auto report = matcher->Evaluate(data->test);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->f1, 0.7);
  EXPECT_EQ(report->num_pairs, data->test.pairs.size());
  EXPECT_EQ(report->num_positives, data->test.NumPositives());
}

TEST(EntityMatcherTest, ScoresAreProbabilities) {
  auto data = GenerateBenchmarkByName("iTunes-Amazon", 5, 0.4);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.automl.max_evaluations = 4;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  auto scores = matcher->ScorePairs(data->test);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), data->test.pairs.size());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(EntityMatcherTest, MagellanFeatureModeWorks) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 6, 0.3);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.feature_generator = "magellan";
  options.automl.max_evaluations = 4;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ(matcher->feature_generator().name(), "magellan");
}

TEST(EntityMatcherTest, ThresholdTradesPrecisionForRecall) {
  auto data = GenerateBenchmarkByName("Amazon-Google", 7, 0.2);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.automl.max_evaluations = 5;
  auto matcher = EntityMatcher::Train(data->train, options);
  ASSERT_TRUE(matcher.ok());
  auto strict = matcher->Evaluate(data->test, 0.9);
  auto lenient = matcher->Evaluate(data->test, 0.1);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(lenient.ok());
  EXPECT_GE(lenient->recall, strict->recall);
}

TEST(EntityMatcherTest, EmptyTrainingRejected) {
  PairSet empty;
  EntityMatcher::Options options;
  EXPECT_FALSE(EntityMatcher::Train(empty, options).ok());
}

TEST(EntityMatcherTest, UnknownFeatureGeneratorRejected) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 8, 0.1);
  ASSERT_TRUE(data.ok());
  EntityMatcher::Options options;
  options.feature_generator = "bogus";
  EXPECT_FALSE(EntityMatcher::Train(data->train, options).ok());
}

// ---- the scoring entry's input checks -----------------------------------------

// Trained once per process: the checks below only need some fitted plan
// over Fodors-Zagats' six attributes.
const EntityMatcher& FodorsMatcher() {
  static const EntityMatcher* matcher = [] {
    auto data = GenerateBenchmarkByName("Fodors-Zagats", 9, 0.1);
    AUTOEM_CHECK(data.ok());
    EntityMatcher::Options options;
    options.automl.max_evaluations = 2;
    auto trained = EntityMatcher::Train(data->train, options);
    AUTOEM_CHECK(trained.ok());
    return new EntityMatcher(std::move(*trained));
  }();
  return *matcher;
}

// The first `width` columns of `table`.
Table FirstColumns(const Table& table, size_t width) {
  std::vector<std::string> names(table.schema().names().begin(),
                                 table.schema().names().begin() + width);
  Table out(table.name(), Schema(names));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const std::vector<Value>& values = table.row(r).values();
    EXPECT_TRUE(
        out.Append(Record({values.begin(), values.begin() + width})).ok());
  }
  return out;
}

TEST(EntityMatcherTest, ScoreRejectsTablesNarrowerThanThePlan) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 9, 0.1);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->test.left.schema().num_attributes(), 6u);
  PairSet narrow = data->test;
  narrow.left = FirstColumns(data->test.left, 2);
  narrow.right = FirstColumns(data->test.right, 2);
  auto scores = FodorsMatcher().ScorePairs(narrow);
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FodorsMatcher().Evaluate(narrow).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EntityMatcherTest, ScoreRejectsMismatchedSchemas) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 9, 0.1);
  ASSERT_TRUE(data.ok());
  PairSet mismatched = data->test;
  mismatched.right = FirstColumns(data->test.right, 5);
  EXPECT_EQ(FodorsMatcher().ScorePairs(mismatched).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EntityMatcherTest, ScoreRejectsOutOfRangePairIds) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 9, 0.1);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(FodorsMatcher().ScorePairs(data->test).ok());
  PairSet bad_left = data->test;
  bad_left.pairs.push_back({data->test.left.num_rows(), 0, -1});
  EXPECT_EQ(FodorsMatcher().ScorePairs(bad_left).status().code(),
            StatusCode::kInvalidArgument);
  PairSet bad_right = data->test;
  bad_right.pairs.insert(bad_right.pairs.begin(),
                         {0, data->test.right.num_rows() + 1000, -1});
  EXPECT_EQ(FodorsMatcher().ScorePairs(bad_right, /*chunk_size=*/7)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EntityMatcherTest, TrainRejectsOutOfRangePairIds) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 9, 0.1);
  ASSERT_TRUE(data.ok());
  PairSet bad = data->train;
  bad.pairs.push_back({0, data->train.right.num_rows(), 1});
  EntityMatcher::Options options;
  options.automl.max_evaluations = 2;
  EXPECT_EQ(EntityMatcher::Train(bad, options).status().code(),
            StatusCode::kInvalidArgument);
}

// Metamorphic: permuting both tables' rows (and remapping the pair ids) and
// shuffling the pair list must not move any pair's score by a bit. The
// token interner then meets the tokens in another order and hands out
// other IDs, which the set measures must not see.
TEST(EntityMatcherTest, ScoresAreInvariantToRowAndPairOrder) {
  for (const DatasetProfile& profile : BenchmarkProfiles()) {
    const std::string& name = profile.name;
    auto data = GenerateBenchmark(profile, 5, 0.05);
    ASSERT_TRUE(data.ok()) << name;
    EntityMatcher::Options options;
    options.automl.max_evaluations = 2;
    auto matcher = EntityMatcher::Train(data->train, options);
    ASSERT_TRUE(matcher.ok()) << name;
    const PairSet& test = data->test;
    auto want = matcher->ScorePairs(test);
    ASSERT_TRUE(want.ok()) << name;

    Rng rng(23);
    auto permutation = [&rng](size_t n) {
      std::vector<size_t> p(n);
      for (size_t i = 0; i < n; ++i) p[i] = i;
      rng.Shuffle(&p);
      return p;
    };
    // Row r of a table moves to row to_left[r] / to_right[r]; pair i moves
    // to position order[i].
    std::vector<size_t> to_left = permutation(test.left.num_rows());
    std::vector<size_t> to_right = permutation(test.right.num_rows());
    std::vector<size_t> order = permutation(test.pairs.size());
    auto permuted_table = [](const Table& table,
                             const std::vector<size_t>& to) {
      std::vector<size_t> from(to.size());
      for (size_t r = 0; r < to.size(); ++r) from[to[r]] = r;
      Table out(table.name(), table.schema());
      for (size_t r : from) EXPECT_TRUE(out.Append(table.row(r)).ok());
      return out;
    };
    PairSet permuted;
    permuted.left = permuted_table(test.left, to_left);
    permuted.right = permuted_table(test.right, to_right);
    permuted.pairs.resize(test.pairs.size());
    for (size_t i = 0; i < test.pairs.size(); ++i) {
      const RecordPair& pair = test.pairs[i];
      permuted.pairs[order[i]] = {to_left[pair.left_id],
                                  to_right[pair.right_id], pair.label};
    }
    auto got = matcher->ScorePairs(permuted, /*chunk_size=*/7);
    ASSERT_TRUE(got.ok()) << name;
    ASSERT_EQ(got->size(), want->size()) << name;
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>((*want)[i]),
                std::bit_cast<uint64_t>((*got)[order[i]]))
          << name << " pair " << i;
    }
  }
}

// ---- pairs interchange format ------------------------------------------------

TEST(PairsIoTest, RoundTripsThroughTable) {
  std::vector<RecordPair> pairs = {{0, 2, 1}, {1, 0, 0}, {3, 1, -1}};
  Table t = PairsToTable(pairs);
  EXPECT_EQ(t.num_rows(), 3u);
  auto back = PairsFromTable(t, /*left_rows=*/4, /*right_rows=*/3);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 3u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*back)[i].left_id, pairs[i].left_id);
    EXPECT_EQ((*back)[i].right_id, pairs[i].right_id);
    EXPECT_EQ((*back)[i].label, pairs[i].label);
  }
}

TEST(PairsIoTest, OutOfRangeIdsRejected) {
  std::vector<RecordPair> pairs = {{5, 0, 1}};
  Table t = PairsToTable(pairs);
  auto back = PairsFromTable(t, /*left_rows=*/3, /*right_rows=*/3);
  EXPECT_EQ(back.status().code(), StatusCode::kOutOfRange);
}

TEST(PairsIoTest, MissingColumnsRejected) {
  Table t("bad", Schema({"x", "y"}));
  ASSERT_TRUE(t.Append(Record({Value(0.0), Value(0.0)})).ok());
  EXPECT_FALSE(PairsFromTable(t, 1, 1).ok());
}

TEST(PairsIoTest, MissingLabelColumnMeansUnlabeled) {
  Table t("p", Schema({"ltable_id", "rtable_id"}));
  ASSERT_TRUE(t.Append(Record({Value(0.0), Value(0.0)})).ok());
  auto pairs = PairsFromTable(t, 1, 1);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ((*pairs)[0].label, -1);
}

TEST(PairsIoTest, NonNumericIdRejected) {
  Table t("p", Schema({"ltable_id", "rtable_id", "label"}));
  ASSERT_TRUE(t.Append(Record({Value("x"), Value(0.0), Value(1.0)})).ok());
  EXPECT_FALSE(PairsFromTable(t, 1, 1).ok());
}

// One pairs row (left id, right id, label) against 4 x 4 tables.
Result<std::vector<RecordPair>> ParseOnePair(Value left, Value right,
                                             Value label) {
  Table t("p", Schema({"ltable_id", "rtable_id", "label"}));
  EXPECT_TRUE(t.Append(Record({std::move(left), std::move(right),
                               std::move(label)}))
                  .ok());
  return PairsFromTable(t, /*left_rows=*/4, /*right_rows=*/4);
}

// Casting a double outside size_t's range is undefined behaviour, and a
// fractional or negative id used to be truncated to some valid row.
TEST(PairsIoTest, NonIntegralOrNonFiniteIdsRejected) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {1e300, 1.5, -0.5, -1.0, kInf, -kInf, kNaN}) {
    EXPECT_FALSE(ParseOnePair(Value(bad), Value(0.0), Value(1.0)).ok())
        << "left id " << bad;
    EXPECT_FALSE(ParseOnePair(Value(0.0), Value(bad), Value(1.0)).ok())
        << "right id " << bad;
  }
  EXPECT_EQ(ParseOnePair(Value(4.0), Value(0.0), Value(1.0)).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PairsIoTest, LabelsOutsideMinusOneZeroOneRejected) {
  for (Value bad : {Value(7.0), Value(1e300), Value(0.5), Value(-2.0),
                    Value("yes"), Value(true)}) {
    EXPECT_FALSE(ParseOnePair(Value(0.0), Value(0.0), bad).ok())
        << bad.ToString();
  }
  const std::pair<Value, int> good[] = {
      {Value(-1.0), -1}, {Value(0.0), 0}, {Value(1.0), 1}, {Value(), -1}};
  for (const auto& [label, want] : good) {
    auto pairs = ParseOnePair(Value(3.0), Value(2.0), label);
    ASSERT_TRUE(pairs.ok()) << label.ToString();
    EXPECT_EQ((*pairs)[0].label, want);
    EXPECT_EQ((*pairs)[0].left_id, 3u);
    EXPECT_EQ((*pairs)[0].right_id, 2u);
  }
}

}  // namespace
}  // namespace autoem
