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
// Counters: rows and cols of the matrix, and nodes of the fitted tree.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bench/bench_gbench_report.h"
#include "common/parallelism.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
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

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  return autoem::bench::RunGBenchMain(argc, argv);
}
