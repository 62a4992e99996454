// Batch scoring throughput: a trained matcher streaming candidate pairs
// through `ScorePairs` (the `autoem_cli predict` / `match` hot path) at the
// default chunk size and at small chunks. Counters:
//   threads         worker-thread setting for the run
//   chunk_size      pairs per chunk
//   pairs_per_sec   scored pairs per wall-clock second
// Chunks exist for bounded peak memory, not speed — the bar is small-chunk
// throughput within noise of the default 4096 at matching thread counts
// (the per-chunk dispatch overhead is amortized).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "bench/bench_gbench_report.h"
#include "common/parallelism.h"
#include "datagen/benchmark_gen.h"
#include "em/matcher.h"

namespace autoem {
namespace {

struct Workload {
  BenchmarkData data;
  std::unique_ptr<EntityMatcher> matcher;
  bool ok = false;
};

// Walmart-Amazon: widest generated schema, most representative per-pair
// featurization cost. Trained once (2 evaluations — the bench measures
// scoring, not search) and shared across every benchmark run.
Workload& SharedWorkload() {
  static Workload* w = [] {
    auto* out = new Workload;
    auto data = GenerateBenchmarkByName("Walmart-Amazon", /*seed=*/11,
                                        /*scale=*/0.1);
    if (!data.ok()) {
      std::fprintf(stderr, "benchmark generation failed: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    EntityMatcher::Options options;
    options.automl.max_evaluations = 2;
    options.automl.seed = 17;
    options.automl.parallelism = Parallelism::Threads(0);
    auto matcher = EntityMatcher::Train(data->train, options);
    if (!matcher.ok()) {
      std::fprintf(stderr, "matcher training failed: %s\n",
                   matcher.status().ToString().c_str());
      std::exit(1);
    }
    out->data = std::move(*data);
    out->matcher = std::make_unique<EntityMatcher>(std::move(*matcher));
    out->ok = true;
    return out;
  }();
  return *w;
}

void RunScoring(benchmark::State& state, size_t chunk_size) {
  Workload& w = SharedWorkload();
  if (!w.ok) {
    state.SkipWithError("workload setup failed");
    return;
  }
  int threads = static_cast<int>(state.range(0));
  w.matcher->SetParallelism(Parallelism::Threads(threads));
  size_t pairs_scored = 0;
  for (auto _ : state) {
    auto scores = w.matcher->ScorePairs(w.data.test, chunk_size);
    if (!scores.ok()) {
      state.SkipWithError(
          ("scoring failed: " + scores.status().ToString()).c_str());
      return;
    }
    benchmark::DoNotOptimize(scores->data());
    pairs_scored += scores->size();
  }
  state.counters["threads"] = threads;
  state.counters["chunk_size"] = static_cast<double>(chunk_size);
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(pairs_scored), benchmark::Counter::kIsRate);
}

void BM_ScorePairsBatched(benchmark::State& state) {
  RunScoring(state, /*chunk_size=*/4096);
}

void BM_ScorePairsBatchedSmallChunks(benchmark::State& state) {
  RunScoring(state, /*chunk_size=*/256);
}

BENCHMARK(BM_ScorePairsBatched)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_ScorePairsBatchedSmallChunks)->Arg(4);

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  return autoem::bench::RunGBenchMain(argc, argv);
}
