// The determinism harness for the parallel hot paths: feature generation,
// random-forest training/inference, and cross-validated evaluation must be
// *bit-identical* at any thread count. Comparisons are done on the raw
// 8-byte patterns (memcmp), which is stricter than operator== — it also
// pins down NaN cells, which a double comparison would wave through as
// "different".
#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "automl/evaluator.h"
#include "automl/search_space.h"
#include "common/parallelism.h"
#include "common/rng.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
#include "io/serialize.h"
#include "ml/models/random_forest.h"
#include "obs/profiler.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "preprocess/balancing.h"
#include "text/interner.h"

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

// ---- cached featurization vs the per-function path -------------------------
//
// GenerateRowCached shares one Levenshtein, one Jaro, one alignment pass and
// one intersection per tokenizer across an attribute's features, and scores
// Monge-Elkan from interned tokens through a per-thread Jaro-Winkler memo.
// GenerateRow calls each SimFunction on freshly rendered strings, so it is
// the oracle.

// GenerateRow's row for every pair of `set`.
std::vector<std::vector<double>> UncachedRows(const FeatureGenerator& gen,
                                              const PairSet& set) {
  std::vector<std::vector<double>> rows;
  rows.reserve(set.pairs.size());
  for (const RecordPair& pair : set.pairs) {
    rows.push_back(gen.GenerateRow(set.left.row(pair.left_id),
                                   set.right.row(pair.right_id)));
  }
  return rows;
}

// The first row of `got` whose bits differ from `want`, or want.size().
size_t FirstDifferentRow(const std::vector<std::vector<double>>& want,
                         const Matrix& got) {
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].size() != got.cols() ||
        std::memcmp(want[i].data(), got.RowPtr(i),
                    got.cols() * sizeof(double)) != 0) {
      return i;
    }
  }
  return want.size();
}

// Generate at every thread count must reproduce GenerateRow bit for bit.
void ExpectGenerateMatchesGenerateRow(FeatureGenerator* gen,
                                      const PairSet& set,
                                      const std::string& what) {
  const std::vector<std::vector<double>> want = UncachedRows(*gen, set);
  for (int threads : kThreadCounts) {
    gen->set_parallelism(Parallelism::Threads(threads));
    Dataset got = gen->Generate(set);
    ASSERT_EQ(got.X.rows(), want.size()) << what;
    const size_t row = FirstDifferentRow(want, got.X);
    EXPECT_EQ(row, want.size())
        << what << " @" << threads << ": pair " << row << " differs";
  }
}

TEST(ParallelDeterminismTest, CachedPathMatchesUncachedGenerateRow) {
  for (const DatasetProfile& profile : BenchmarkProfiles()) {
    auto data = GenerateBenchmarkByName(profile.name, /*seed=*/7,
                                        /*scale=*/0.05);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    for (const PairSet* set : {&data->train, &data->test}) {
      AutoMlEmFeatureGenerator automl_em(/*include_tfidf=*/true);
      MagellanFeatureGenerator magellan;
      for (FeatureGenerator* gen :
           std::initializer_list<FeatureGenerator*>{&automl_em, &magellan}) {
        ASSERT_TRUE(gen->Plan(set->left, set->right).ok()) << profile.name;
        ExpectGenerateMatchesGenerateRow(gen, *set,
                                         profile.name + " " + gen->name());
      }
    }
  }
}

// One string attribute per table; every left row meets every right row.
PairSet CrossPairs(const std::vector<Value>& left,
                   const std::vector<Value>& right) {
  PairSet set;
  set.left = Table("left", Schema({"text"}));
  set.right = Table("right", Schema({"text"}));
  for (const Value& v : left) EXPECT_TRUE(set.left.Append(Record({v})).ok());
  for (const Value& v : right) EXPECT_TRUE(set.right.Append(Record({v})).ok());
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      set.pairs.push_back({l, r, static_cast<int>((l + r) % 2)});
    }
  }
  return set;
}

TEST(ParallelDeterminismTest, CachedPathMatchesGenerateRowOnHostileCells) {
  const std::string long_a(70, 'q');
  const std::string long_b = std::string(65, 'q') + "r";
  const std::vector<Value> left = {
      Value("a a a b c"),                     // repeated tokens
      Value("shared left only"),              // one token shared with right
      Value("same"),                          // the same token on both sides
      Value("   \t \n "),                     // whitespace only
      Value(std::string()),                   // empty, not null
      Value(long_a + " " + long_b + " x"),    // tokens over 64 bytes
      Value("caf\xC3\xA9 na\xC3\xAFve \xFF\x80 caf\xC3\xA9"),
      Value(),                                // null
      Value(std::string("nul\0byte tok", 12)),
  };
  const std::vector<Value> right = {
      Value("c b b a"),
      Value("right shared only"),
      Value("same"),
      Value(" "),
      Value(std::string()),
      Value(long_b + " " + long_a),
      Value("\xFF\x80 cafe naive"),
      Value(),
      Value("a"),
  };
  PairSet set = CrossPairs(left, right);
  AutoMlEmFeatureGenerator automl_em(/*include_tfidf=*/true);
  MagellanFeatureGenerator magellan;
  for (FeatureGenerator* gen :
       std::initializer_list<FeatureGenerator*>{&automl_em, &magellan}) {
    ASSERT_TRUE(gen->Plan(set.left, set.right).ok()) << gen->name();
    ExpectGenerateMatchesGenerateRow(gen, set, gen->name());
  }
}

// Loads `plan` into `gen` as a saved model's plan is loaded.
void LoadPlan(const std::vector<FeaturePlan>& plan, FeatureGenerator* gen) {
  io::Writer w;
  w.U64(plan.size());
  for (const FeaturePlan& p : plan) {
    w.U64(p.attr_index);
    w.U32(static_cast<uint32_t>(p.func.measure));
    w.U32(static_cast<uint32_t>(p.func.tokenizer));
    w.Str(p.name);
  }
  w.U64(0);  // no TF-IDF plans
  io::Reader r(w.data());
  ASSERT_TRUE(gen->LoadState(&r).ok());
  ASSERT_EQ(gen->plan().size(), plan.size());
}

// `n` distinct random lowercase words, none of them in `exclude`.
std::vector<std::string> RandomVocabulary(uint64_t seed, size_t n,
                                          const std::vector<std::string>&
                                              exclude) {
  Rng rng(seed);
  std::vector<std::string> words;
  while (words.size() < n) {
    std::string w;
    const size_t len = 3 + rng.UniformIndex(7);
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.UniformIndex(26)));
    }
    if (std::find(words.begin(), words.end(), w) == words.end() &&
        std::find(exclude.begin(), exclude.end(), w) == exclude.end()) {
      words.push_back(std::move(w));
    }
  }
  return words;
}

// Cells of six words each from `vocabulary`.
std::vector<Value> RandomCells(Rng* rng,
                               const std::vector<std::string>& vocabulary,
                               size_t rows) {
  std::vector<Value> cells;
  for (size_t r = 0; r < rows; ++r) {
    std::string text;
    for (int t = 0; t < 6; ++t) {
      if (t > 0) text += ' ';
      text += vocabulary[rng->UniformIndex(vocabulary.size())];
    }
    cells.push_back(Value(std::move(text)));
  }
  return cells;
}

// The Jaro-Winkler memo outlives every Prepare on its thread. Two table
// pairs with disjoint vocabularies give their interners the same ID values
// for different tokens, so an entry served across Prepares would be the
// Jaro-Winkler of other tokens. Each round prepares, featurizes and frees
// one pair's caches, so the next interner may reuse the freed one's
// address. The plan is Monge-Elkan alone: no q-grams share the interner,
// so most (left, right) ID pairs recur across the two vocabularies.
TEST(ParallelDeterminismTest, JaroWinklerMemoNeverServesAnotherInterner) {
  const std::vector<std::string> vocab_a = RandomVocabulary(1, 120, {});
  const std::vector<std::string> vocab_b = RandomVocabulary(2, 120, vocab_a);
  // The premise: the two vocabularies share ID values.
  TokenInterner interner_a;
  TokenInterner interner_b;
  std::vector<uint32_t> ids_a;
  for (const std::string& w : vocab_a) ids_a.push_back(interner_a.IdOf(w));
  size_t reused = 0;
  for (const std::string& w : vocab_b) {
    reused += std::count(ids_a.begin(), ids_a.end(), interner_b.IdOf(w));
  }
  ASSERT_GT(reused, 50u);

  Rng rng(3);
  PairSet sets[2] = {
      CrossPairs(RandomCells(&rng, vocab_a, 24), RandomCells(&rng, vocab_a, 24)),
      CrossPairs(RandomCells(&rng, vocab_b, 24), RandomCells(&rng, vocab_b, 24))};
  AutoMlEmFeatureGenerator gens[2];
  std::vector<std::vector<double>> want[2];
  for (int k = 0; k < 2; ++k) {
    LoadPlan({{0, {Measure::kMongeElkan}, "text_monge_elkan"}}, &gens[k]);
    gens[k].set_parallelism(Parallelism::Serial());
    want[k] = UncachedRows(gens[k], sets[k]);
  }
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 2; ++k) {
      const FeatureGenerator::PreparedTables prepared =
          gens[k].Prepare(sets[k].left, sets[k].right);
      const Matrix got = gens[k].GenerateChunk(prepared, sets[k].pairs, 0,
                                               sets[k].pairs.size());
      const size_t row = FirstDifferentRow(want[k], got);
      EXPECT_EQ(row, want[k].size())
          << "round " << round << " set " << k << ": pair " << row;
    }
  }
}

// A loaded model may list an attribute's features apart, and repeat one.
// The shared intermediates must give the same bits in any plan order.
TEST(ParallelDeterminismTest, InterleavedLoadedPlanMatchesGenerateRow) {
  BenchmarkData data = MakeBenchmark();
  AutoMlEmFeatureGenerator planned;
  ASSERT_TRUE(planned.Plan(data.train.left, data.train.right).ok());
  // Round-robin over attributes: attribute 0's first function, attribute
  // 1's first, ..., then every attribute's second, and so on.
  std::vector<std::vector<FeaturePlan>> by_attr;
  for (const FeaturePlan& p : planned.plan()) {
    if (p.attr_index >= by_attr.size()) by_attr.resize(p.attr_index + 1);
    by_attr[p.attr_index].push_back(p);
  }
  std::vector<FeaturePlan> order;
  for (size_t k = 0; order.size() < planned.plan().size(); ++k) {
    for (const auto& features : by_attr) {
      if (k < features.size()) order.push_back(features[k]);
    }
  }
  order.push_back(order.front());  // a repeat, far from its twin
  ASSERT_NE(order[0].attr_index, order[1].attr_index);

  AutoMlEmFeatureGenerator loaded;
  LoadPlan(order, &loaded);
  ExpectGenerateMatchesGenerateRow(&loaded, data.train, "interleaved plan");
}

// One alignment pass serves both Needleman-Wunsch and Smith-Waterman of a
// (pair, attribute). A plan may hold only one of them, or hold them on
// different attributes; a score must never come from another attribute's
// pass. Attributes 0 and 1 (name, address) are strings that differ.
TEST(ParallelDeterminismTest, AlignmentPlanShapesMatchGenerateRow) {
  BenchmarkData data = MakeBenchmark();
  const FeaturePlan nw = {0, {Measure::kNeedlemanWunsch}, "a0_nw"};
  const FeaturePlan sw = {0, {Measure::kSmithWaterman}, "a0_sw"};
  const FeaturePlan other_sw = {1, {Measure::kSmithWaterman}, "a1_sw"};
  const std::pair<const char*, std::vector<FeaturePlan>> shapes[] = {
      {"Needleman-Wunsch only", {nw}},
      {"Smith-Waterman only", {sw}},
      {"Needleman-Wunsch, then another attribute's Smith-Waterman",
       {nw, other_sw}},
  };
  for (const auto& [what, plan] : shapes) {
    AutoMlEmFeatureGenerator gen;
    LoadPlan(plan, &gen);
    ExpectGenerateMatchesGenerateRow(&gen, data.train, what);
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
