// Tree induction: the cost behind every AutoML search trial, matcher
// training, and each refit of an active-learning session. The matrix is a
// fixed-seed Abt-Buy feature pool, as the labeling sessions fit on.
//   BM_ForestFit/0         80-tree random forest, one thread, unweighted:
//                          bootstrap counts as weights
//   BM_ForestFit/1         the same with balanced class weights:
//                          fractional weights, which the split search
//                          scans the same way as whole ones
//   BM_TreeFit/w           one fully grown tree over every feature,
//                          building its own ranks (w: 0 unweighted,
//                          1 class-weighted)
//   BM_TreeFitReference/w  the same tree through the plain stable-sorting
//                          definition of the split search
//                          (reference::FitClassifierTree), the in-binary
//                          denominator of the speedup
//   BM_ForestPredict/v     the BM_ForestFit/0 forest scores the pool it was
//                          fit on through the flattened walk (v: 0
//                          PredictProba, 1 PredictProbaAndConfidence, the
//                          labeling loop's committee vote)
//   BM_ForestPredictReference
//                          the same sums through each tree's scalar
//                          PredictRowProba, the in-binary denominator
//   BM_FeatureRanks/d      the split ranks of the pool's first 1,225 rows,
//                          the labeled set of a labeling session's last
//                          refit (d: 0 sorted from the rows' values,
//                          FeatureRanks(X); 1 derived from the pool's
//                          ranks, built once, as the session derives them)
// Counters: rows and cols of the matrix, and nodes of the fitted tree.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "bench/bench_gbench_report.h"
#include "common/parallelism.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
#include "io/serialize.h"
#include "ml/models/decision_tree.h"
#include "ml/models/random_forest.h"
#include "preprocess/balancing.h"

namespace autoem {
namespace {

struct Workload {
  Dataset pool;
  std::vector<double> class_weights;
};

const Workload& SharedWorkload() {
  static Workload* w = [] {
    auto data = GenerateBenchmarkByName("Abt-Buy", /*seed=*/11,
                                        /*scale=*/0.2);
    if (!data.ok()) {
      std::fprintf(stderr, "benchmark generation failed: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    AutoMlEmFeatureGenerator gen;
    gen.set_parallelism(Parallelism::Serial());
    if (!gen.Plan(data->train.left, data->train.right).ok()) {
      std::fprintf(stderr, "feature planning failed\n");
      std::exit(1);
    }
    auto* out = new Workload;
    out->pool = gen.Generate(data->train);
    auto weights = BalancedClassWeights(out->pool.y);
    if (!weights.ok()) {
      std::fprintf(stderr, "class weights failed: %s\n",
                   weights.status().ToString().c_str());
      std::exit(1);
    }
    out->class_weights = std::move(*weights);
    return out;
  }();
  return *w;
}

const std::vector<double>* Weights(const Workload& w, int64_t weighted) {
  return weighted != 0 ? &w.class_weights : nullptr;
}

void SetShapeCounters(benchmark::State& state, const Matrix& X) {
  state.counters["rows"] = static_cast<double>(X.rows());
  state.counters["cols"] = static_cast<double>(X.cols());
}

void BM_ForestFit(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  RandomForestOptions opt;
  opt.n_estimators = 80;
  opt.parallelism = Parallelism::Serial();
  for (auto _ : state) {
    RandomForestClassifier rf(opt);
    Status st = rf.Fit(w.pool.X, w.pool.y, Weights(w, state.range(0)));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rf.NumTrees());
  }
  SetShapeCounters(state, w.pool.X);
}
BENCHMARK(BM_ForestFit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TreeFit(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  size_t nodes = 0;
  for (auto _ : state) {
    DecisionTreeClassifier tree;
    Status st = tree.Fit(w.pool.X, w.pool.y, Weights(w, state.range(0)));
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    nodes = tree.NodeCount();
  }
  SetShapeCounters(state, w.pool.X);
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_TreeFit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TreeFitReference(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  size_t nodes = 0;
  for (auto _ : state) {
    auto fitted = reference::FitClassifierTree(
        TreeOptions{}, w.pool.X, w.pool.y, Weights(w, state.range(0)));
    if (!fitted.ok()) {
      state.SkipWithError(fitted.status().ToString().c_str());
      return;
    }
    nodes = fitted->size();
  }
  SetShapeCounters(state, w.pool.X);
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_TreeFitReference)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The BM_ForestFit/0 forest, fitted once, and its trees as standalone
// classifiers for the scalar reference walk.
struct FittedForest {
  RandomForestClassifier forest;
  std::vector<DecisionTreeClassifier> trees;
};

const FittedForest& SharedForest() {
  static FittedForest* f = [] {
    const Workload& w = SharedWorkload();
    RandomForestOptions opt;
    opt.n_estimators = 80;
    opt.parallelism = Parallelism::Serial();
    auto* out = new FittedForest{RandomForestClassifier(opt), {}};
    io::Writer writer;
    if (!out->forest.Fit(w.pool.X, w.pool.y).ok() ||
        !out->forest.SaveFitted(&writer).ok()) {
      std::fprintf(stderr, "forest fit failed\n");
      std::exit(1);
    }
    io::Reader reader(writer.data());
    uint64_t count = 0;
    bool ok = reader.U64(&count).ok();
    out->trees.resize(static_cast<size_t>(count));
    for (auto& tree : out->trees) ok = ok && tree.LoadFitted(&reader).ok();
    if (!ok) {
      std::fprintf(stderr, "forest reload failed\n");
      std::exit(1);
    }
    return out;
  }();
  return *f;
}

void BM_ForestPredict(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  const RandomForestClassifier& rf = SharedForest().forest;
  for (auto _ : state) {
    if (state.range(0) != 0) {
      auto scored = rf.PredictProbaAndConfidence(w.pool.X);
      benchmark::DoNotOptimize(scored.proba.data());
      benchmark::DoNotOptimize(scored.confidence.data());
    } else {
      std::vector<double> proba = rf.PredictProba(w.pool.X);
      benchmark::DoNotOptimize(proba.data());
    }
    benchmark::ClobberMemory();
  }
  SetShapeCounters(state, w.pool.X);
}
BENCHMARK(BM_ForestPredict)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ForestPredictReference(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  const std::vector<DecisionTreeClassifier>& trees = SharedForest().trees;
  std::vector<double> proba(w.pool.X.rows());
  for (auto _ : state) {
    for (size_t r = 0; r < proba.size(); ++r) {
      double sum = 0.0;
      for (const auto& tree : trees) {
        sum += tree.PredictRowProba(w.pool.X.RowPtr(r));
      }
      proba[r] = sum / static_cast<double>(trees.size());
    }
    benchmark::DoNotOptimize(proba.data());
    benchmark::ClobberMemory();
  }
  SetShapeCounters(state, w.pool.X);
}
BENCHMARK(BM_ForestPredictReference)->Unit(benchmark::kMillisecond);

void BM_FeatureRanks(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  std::vector<size_t> rows(std::min<size_t>(1225, w.pool.X.rows()));
  std::iota(rows.begin(), rows.end(), size_t{0});
  const Matrix X = w.pool.X.SelectRows(rows);
  const FeatureRanks pool_ranks(w.pool.X);
  for (auto _ : state) {
    if (state.range(0) != 0) {
      FeatureRanks ranks(pool_ranks, rows);
      benchmark::DoNotOptimize(ranks.Ranks(0));
    } else {
      FeatureRanks ranks(X);
      benchmark::DoNotOptimize(ranks.Ranks(0));
    }
    benchmark::ClobberMemory();
  }
  SetShapeCounters(state, X);
}
BENCHMARK(BM_FeatureRanks)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  return autoem::bench::RunGBenchMain(argc, argv);
}
