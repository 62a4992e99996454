// The determinism harness for the parallel hot paths: feature generation,
// random-forest training/inference, and cross-validated evaluation must be
// *bit-identical* at any thread count. Comparisons are done on the raw
// 8-byte patterns (memcmp), which is stricter than operator== — it also
// pins down NaN cells, which a double comparison would wave through as
// "different".
#include <cstring>
#include <utility>

#include "gtest/gtest.h"

#include "automl/evaluator.h"
#include "automl/search_space.h"
#include "common/parallelism.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
#include "ml/models/random_forest.h"
#include "obs/profiler.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "preprocess/balancing.h"

namespace autoem {
namespace {

// The whole harness runs with resource probes and allocation counting on:
// probes are measurement-only, so every bit-identity assertion below doubles
// as proof that enabling them (the `--resources` flag) cannot perturb a
// single output bit at any thread count.
const bool kProbesOn = [] {
  obs::SetResourceProbesEnabled(true);
  obs::SetAllocationCounting(true);
  return true;
}();

const int kThreadCounts[] = {1, 2, 8};

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
      << what << ": payloads differ";
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(0,
              std::memcmp(a.RowPtr(r), b.RowPtr(r), a.cols() * sizeof(double)))
        << what << ": row " << r << " differs";
  }
}

BenchmarkData MakeBenchmark() {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", /*seed=*/7,
                                      /*scale=*/0.2);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(*data);
}

TEST(ParallelDeterminismTest, FeatureMatrixBitIdenticalAcrossThreadCounts) {
  // Fodors-Zagats cells are short; Abt-Buy's 25-40-word descriptions run
  // the multi-word Jaro sets, long alignment diagonals and the kernels'
  // per-thread scratch.
  auto abt_buy = GenerateBenchmarkByName("Abt-Buy", /*seed=*/7,
                                         /*scale=*/0.02);
  ASSERT_TRUE(abt_buy.ok()) << abt_buy.status().ToString();
  const std::pair<const char*, BenchmarkData> legs[] = {
      {"Fodors-Zagats", MakeBenchmark()}, {"Abt-Buy", std::move(*abt_buy)}};
  for (const auto& [name, data] : legs) {
    // TF-IDF features included so the whitespace-token cache path that
    // backs them is exercised alongside the q-gram and sequence-measure
    // paths.
    AutoMlEmFeatureGenerator baseline_gen(/*include_tfidf=*/true);
    baseline_gen.set_parallelism(Parallelism::Serial());
    ASSERT_TRUE(baseline_gen.Plan(data.train.left, data.train.right).ok());
    Dataset baseline = baseline_gen.Generate(data.train);
    ASSERT_GT(baseline.size(), 0u) << name;
    ASSERT_GT(baseline.num_features(), 0u) << name;

    for (int threads : kThreadCounts) {
      AutoMlEmFeatureGenerator gen(/*include_tfidf=*/true);
      gen.set_parallelism(Parallelism::Threads(threads));
      ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
      Dataset got = gen.Generate(data.train);
      ExpectBitIdentical(baseline.X, got.X,
                         std::string(name) + " feature matrix @" +
                             std::to_string(threads));
      EXPECT_EQ(baseline.y, got.y) << name << " labels @" << threads;
      EXPECT_EQ(baseline.feature_names, got.feature_names) << name;
    }
  }
}

TEST(ParallelDeterminismTest, MagellanFeatureMatrixBitIdentical) {
  BenchmarkData data = MakeBenchmark();
  MagellanFeatureGenerator baseline_gen;
  ASSERT_TRUE(baseline_gen.Plan(data.train.left, data.train.right).ok());
  Dataset baseline = baseline_gen.Generate(data.train);

  for (int threads : kThreadCounts) {
    MagellanFeatureGenerator gen;
    gen.set_parallelism(Parallelism::Threads(threads));
    ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
    ExpectBitIdentical(baseline.X, gen.Generate(data.train).X,
                       "magellan matrix @" + std::to_string(threads));
  }
}

// The token cache must not change values relative to the uncached
// per-record path (GenerateRow tokenizes from scratch).
TEST(ParallelDeterminismTest, CachedPathMatchesUncachedGenerateRow) {
  BenchmarkData data = MakeBenchmark();
  AutoMlEmFeatureGenerator gen(/*include_tfidf=*/true);
  gen.set_parallelism(Parallelism::Threads(4));
  ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
  Dataset cached = gen.Generate(data.train);

  size_t step = std::max<size_t>(1, data.train.pairs.size() / 25);
  for (size_t i = 0; i < data.train.pairs.size(); i += step) {
    const RecordPair& pair = data.train.pairs[i];
    std::vector<double> row =
        gen.GenerateRow(data.train.left.row(pair.left_id),
                        data.train.right.row(pair.right_id));
    ExpectBitIdentical(row, cached.X.RowVector(i),
                       "pair " + std::to_string(i));
  }
}

TEST(ParallelDeterminismTest, ForestFitAndPredictBitIdentical) {
  BenchmarkData data = MakeBenchmark();
  AutoMlEmFeatureGenerator gen;
  ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
  Dataset train = gen.Generate(data.train);
  Dataset test = gen.Generate(data.test);

  // Unweighted trees sum whole bootstrap counts; class-weighted ones
  // (balancing:strategy=weighting) sum fractions, in the order of the
  // split search's key sort. Both legs share one rank store per fit.
  auto class_weights = BalancedClassWeights(train.y);
  ASSERT_TRUE(class_weights.ok());
  const std::pair<const char*, const std::vector<double>*> legs[] = {
      {"unweighted", nullptr}, {"class-weighted", &*class_weights}};
  for (const auto& [leg, weights] : legs) {
    auto fit_forest = [&](int threads) {
      RandomForestOptions opt;
      opt.n_estimators = 24;
      opt.seed = 99;
      opt.parallelism = Parallelism::Threads(threads);
      RandomForestClassifier rf(opt);
      EXPECT_TRUE(rf.Fit(train.X, train.y, weights).ok());
      return rf;
    };

    RandomForestClassifier baseline = fit_forest(1);
    std::vector<double> base_proba = baseline.PredictProba(test.X);
    std::vector<int> base_pred = baseline.Predict(test.X);
    std::vector<double> base_conf = baseline.VoteConfidence(test.X);

    for (int threads : kThreadCounts) {
      const std::string at =
          std::string(leg) + " @" + std::to_string(threads);
      RandomForestClassifier rf = fit_forest(threads);
      ASSERT_EQ(rf.NumTrees(), baseline.NumTrees());
      ExpectBitIdentical(base_proba, rf.PredictProba(test.X), "proba " + at);
      EXPECT_EQ(base_pred, rf.Predict(test.X)) << "predictions " << at;
      ExpectBitIdentical(base_conf, rf.VoteConfidence(test.X),
                         "vote confidence " + at);
      auto both = rf.PredictProbaAndConfidence(test.X);
      ExpectBitIdentical(base_proba, both.proba, "committee proba " + at);
      ExpectBitIdentical(base_conf, both.confidence,
                         "committee confidence " + at);
    }
  }
}

// A forest fitted serially must score identically when only inference runs
// parallel (the active-learning loop flips parallelism between phases).
TEST(ParallelDeterminismTest, InferenceParallelismAloneChangesNothing) {
  BenchmarkData data = MakeBenchmark();
  AutoMlEmFeatureGenerator gen;
  ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
  Dataset train = gen.Generate(data.train);

  RandomForestOptions opt;
  opt.n_estimators = 16;
  opt.seed = 3;
  RandomForestClassifier rf(opt);
  ASSERT_TRUE(rf.Fit(train.X, train.y).ok());
  std::vector<double> serial = rf.PredictProba(train.X);

  for (int threads : kThreadCounts) {
    rf.SetParallelism(Parallelism::Threads(threads));
    ExpectBitIdentical(serial, rf.PredictProba(train.X),
                       "inference @" + std::to_string(threads));
  }
}

// The profiler is measurement-only: interrupting the hot paths with SIGPROF
// at a high rate must not perturb a single output bit. Feature generation
// and a forest fit/predict run once clean and once under an active profile;
// both the matrix and the probabilities must match memcmp-exactly.
TEST(ParallelDeterminismTest, ProfilingChangesNoOutputBits) {
  BenchmarkData data = MakeBenchmark();
  AutoMlEmFeatureGenerator gen(/*include_tfidf=*/true);
  gen.set_parallelism(Parallelism::Threads(4));
  ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());

  auto run_once = [&] {
    Dataset train = gen.Generate(data.train);
    RandomForestOptions opt;
    opt.n_estimators = 16;
    opt.seed = 42;
    opt.parallelism = Parallelism::Threads(4);
    RandomForestClassifier rf(opt);
    EXPECT_TRUE(rf.Fit(train.X, train.y).ok());
    return std::make_pair(std::move(train), rf.PredictProba(train.X));
  };

  ASSERT_FALSE(obs::ProfilingEnabled());
  auto [clean_train, clean_proba] = run_once();

  obs::ProfilerOptions options;
  options.hz = 997.0;
  ASSERT_TRUE(obs::StartProfiling(options));
  auto [profiled_train, profiled_proba] = run_once();
  // The vectorized kernels can finish one run in less CPU time than a
  // single 997 Hz sampling interval; repeat identical work until at least
  // one SIGPROF lands so the non-vacuousness check below stays meaningful.
  // Every repeat must still reproduce the same bits.
  for (int i = 0; i < 200 && obs::ProfileSampleCount() == 0; ++i) {
    auto [extra_train, extra_proba] = run_once();
    ExpectBitIdentical(profiled_train.X, extra_train.X,
                       "feature matrix repeat under profiler");
    ExpectBitIdentical(profiled_proba, extra_proba,
                       "proba repeat under profiler");
  }
  obs::StopProfiling();

  ExpectBitIdentical(clean_train.X, profiled_train.X,
                     "feature matrix under profiler");
  ExpectBitIdentical(clean_proba, profiled_proba, "proba under profiler");
  // And the profile actually sampled the run — this leg is not vacuous.
  EXPECT_GT(obs::ProfileSampleCount(), 0u);
}

// Causal tracing (obs v4) is measurement-only too: with span + flow tracing
// live, feature generation and forest training must reproduce the clean
// baseline bit-for-bit at 1, 2, and 8 threads — and the traced runs must
// actually have emitted flow events, so the leg isn't vacuous.
TEST(ParallelDeterminismTest, FlowTracingChangesNoOutputBits) {
  BenchmarkData data = MakeBenchmark();

  auto run_once = [&](int threads) {
    AutoMlEmFeatureGenerator gen(/*include_tfidf=*/true);
    gen.set_parallelism(Parallelism::Threads(threads));
    EXPECT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
    Dataset train = gen.Generate(data.train);
    RandomForestOptions opt;
    opt.n_estimators = 16;
    opt.seed = 42;
    opt.parallelism = Parallelism::Threads(threads);
    RandomForestClassifier rf(opt);
    EXPECT_TRUE(rf.Fit(train.X, train.y).ok());
    return std::make_pair(std::move(train), rf.PredictProba(train.X));
  };

  ASSERT_FALSE(obs::TracingEnabled());
  auto [clean_train, clean_proba] = run_once(4);

  for (int threads : kThreadCounts) {
    obs::StartTracing();
    auto [traced_train, traced_proba] = run_once(threads);
    obs::StopTracing();
    ExpectBitIdentical(clean_train.X, traced_train.X,
                       "feature matrix traced @" + std::to_string(threads));
    ExpectBitIdentical(clean_proba, traced_proba,
                       "proba traced @" + std::to_string(threads));
    size_t flow_starts = 0;
    size_t flow_finishes = 0;
    for (const obs::TraceEvent& e : obs::SnapshotTraceEvents()) {
      if (e.ph == 's') ++flow_starts;
      if (e.ph == 'f') ++flow_finishes;
    }
    if (threads > 1) {
      // Pooled runs link every queued task; inline runs have no queue and
      // therefore no flows.
      EXPECT_GT(flow_starts, 0u) << "@" << threads;
      EXPECT_EQ(flow_starts, flow_finishes) << "@" << threads;
    } else {
      EXPECT_EQ(flow_starts, 0u) << "@" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, CrossValidatedF1IdenticalAcrossThreadCounts) {
  BenchmarkData data = MakeBenchmark();
  AutoMlEmFeatureGenerator gen;
  ASSERT_TRUE(gen.Plan(data.train.left, data.train.right).ok());
  Dataset train = gen.Generate(data.train);

  Configuration config =
      DefaultEmConfiguration(ModelSpace::kRandomForestOnly);

  auto baseline =
      CrossValidatedF1(config, train, /*folds=*/4, /*seed=*/17,
                       Parallelism::Serial());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(*baseline, 0.0);  // Fodors-Zagats is learnable

  for (int threads : kThreadCounts) {
    auto got = CrossValidatedF1(config, train, /*folds=*/4, /*seed=*/17,
                                Parallelism::Threads(threads));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Exact, not approximate: fold assignment precedes dispatch and the
    // fold mean is reduced in fold order.
    EXPECT_EQ(*baseline, *got) << "cv f1 @" << threads;
  }
}

}  // namespace
}  // namespace autoem
