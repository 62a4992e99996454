// Serial-vs-parallel throughput for the feature-generation hot path.
//
// Each BM_* runs the same `FeatureGenerator::Generate` workload at
// state.range(0) worker threads; the acceptance target is >= 2x speedup at
// 4+ threads on multicore hardware (on a single-core host all settings
// degrade to the serial path and report ~1x). Counters:
//   threads         worker-thread setting for the run
//   pairs_per_sec   featurized pairs per wall-clock second
//   speedup         throughput relative to the 1-thread run of the same
//                   workload, measured once up front
// All counters land in `--benchmark_format=json` output automatically.
//
// BM_GenerateChunk/{0,1} time pair featurization on the shapes of the
// bench_e2e match workloads, serially: GenerateChunk over the first 4096
// blocked candidates of DBLP-ACM (short titles, ~100 candidates per row)
// and Abt-Buy (long descriptions), with Prepare outside the timed loop.
// BM_GenerateRowReference/{0,1} run the per-function GenerateRow on the
// same pairs: the in-binary denominator of the cached path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_gbench_report.h"
#include "common/parallelism.h"
#include "datagen/benchmark_gen.h"
#include "em/blocking.h"
#include "features/feature_gen.h"
#include "obs/obs.h"

namespace autoem {
namespace {

struct Workload {
  BenchmarkData data;
  bool ok = false;
};

// Walmart-Amazon has the widest schema of the generated profiles, so its
// featurization cost per pair is the most representative of the paper's
// heavier datasets.
Workload& SharedWorkload() {
  static Workload* w = [] {
    auto* out = new Workload;
    auto data = GenerateBenchmarkByName("Walmart-Amazon", /*seed=*/11,
                                        /*scale=*/0.05);
    if (!data.ok()) {
      std::fprintf(stderr, "benchmark generation failed: %s\n",
                   data.status().ToString().c_str());
      std::exit(1);
    }
    out->data = std::move(*data);
    out->ok = true;
    return out;
  }();
  return *w;
}

double MeasureSerialSeconds(bool include_tfidf) {
  Workload& w = SharedWorkload();
  AutoMlEmFeatureGenerator gen(include_tfidf);
  gen.set_parallelism(Parallelism::Serial());
  Status planned = gen.Plan(w.data.train.left, w.data.train.right);
  if (!planned.ok()) {
    // A silent 0.0 baseline would report speedup_vs_serial == 0 and look
    // like a perf regression; refuse to run instead.
    std::fprintf(stderr, "serial baseline plan failed: %s\n",
                 planned.ToString().c_str());
    std::exit(1);
  }
  gen.Generate(w.data.train);  // warm-up
  auto start = std::chrono::steady_clock::now();
  constexpr int kReps = 3;
  for (int i = 0; i < kReps; ++i) gen.Generate(w.data.train);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / kReps;
}

double SerialBaselineSeconds(bool include_tfidf) {
  static std::map<bool, double>* cache = new std::map<bool, double>;
  auto it = cache->find(include_tfidf);
  if (it == cache->end()) {
    it = cache->emplace(include_tfidf, MeasureSerialSeconds(include_tfidf))
             .first;
  }
  return it->second;
}

void RunFeatureGen(benchmark::State& state, bool include_tfidf) {
  Workload& w = SharedWorkload();
  if (!w.ok) {
    state.SkipWithError("benchmark generation failed");
    return;
  }
  int threads = static_cast<int>(state.range(0));
  AutoMlEmFeatureGenerator gen(include_tfidf);
  gen.set_parallelism(Parallelism::Threads(threads));
  Status planned = gen.Plan(w.data.train.left, w.data.train.right);
  if (!planned.ok()) {
    state.SkipWithError(("plan failed: " + planned.ToString()).c_str());
    return;
  }
  obs::SetAllocationCounting(true);
  uint64_t allocs_before = obs::AllocationCount();
  for (auto _ : state) {
    Dataset d = gen.Generate(w.data.train);
    benchmark::DoNotOptimize(d.X.rows());
  }
  uint64_t allocs_after = obs::AllocationCount();
  int64_t pairs = static_cast<int64_t>(w.data.train.pairs.size());
  state.SetItemsProcessed(state.iterations() * pairs);
  state.counters["threads"] = threads;
  // Heap allocations per featurized pair across the timed loop. The arena
  // tokenizers and interned token-ID caches exist to push this toward the
  // floor of one matrix + cache build per Generate call.
  state.counters["allocs_per_pair"] =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(std::max<int64_t>(1, state.iterations() * pairs));
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * pairs),
      benchmark::Counter::kIsRate);
  double serial_s = SerialBaselineSeconds(include_tfidf);
  state.counters["serial_baseline_s"] = serial_s;
  // kIsIterationInvariantRate reports value * iterations / total_time, i.e.
  // serial_baseline_s / mean_iteration_s — the speedup over the serial run.
  state.counters["speedup_vs_serial"] = benchmark::Counter(
      serial_s, benchmark::Counter::kIsIterationInvariantRate);
  // Mirror into the obs metrics registry so a --metrics-out run captures the
  // baseline next to the library's own counters, in the shared snapshot
  // format.
  obs::MetricsRegistry::Global()
      .GetGauge(std::string("bench.featuregen_serial_baseline_s") +
                (include_tfidf ? "_tfidf" : ""))
      ->Set(serial_s);
}

void BM_ParallelFeatureGen(benchmark::State& state) {
  RunFeatureGen(state, /*include_tfidf=*/false);
}
BENCHMARK(BM_ParallelFeatureGen)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelFeatureGenTfIdf(benchmark::State& state) {
  RunFeatureGen(state, /*include_tfidf=*/true);
}
BENCHMARK(BM_ParallelFeatureGenTfIdf)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// A match workload's scoring input: the test split's tables blocked on one
// attribute, featurized by a generator planned on the train split, as
// EntityMatcher::Train plans it.
struct MatchShape {
  BenchmarkData data;
  PairSet candidates;
  AutoMlEmFeatureGenerator generator;
};

MatchShape& SharedMatchShape(int64_t which) {
  static MatchShape* shapes[2] = {nullptr, nullptr};
  MatchShape*& shape = shapes[which];
  if (shape != nullptr) return *shape;
  const char* dataset = which == 0 ? "DBLP-ACM" : "Abt-Buy";
  const char* attribute = which == 0 ? "title" : "name";
  const double scale = which == 0 ? 0.05 : 0.1;
  auto data = GenerateBenchmarkByName(dataset, /*seed=*/11, scale);
  if (!data.ok()) {
    std::fprintf(stderr, "benchmark generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  shape = new MatchShape;
  shape->data = std::move(*data);
  auto blocked = QGramBlocker(attribute, 3).Block(shape->data.test.left,
                                                  shape->data.test.right);
  Status planned = shape->generator.Plan(shape->data.train.left,
                                         shape->data.train.right);
  if (!blocked.ok() || !planned.ok()) {
    std::fprintf(stderr, "blocking or planning %s failed\n", dataset);
    std::exit(1);
  }
  shape->candidates.left = shape->data.test.left;
  shape->candidates.right = shape->data.test.right;
  shape->candidates.pairs = std::move(*blocked);
  shape->candidates.pairs.resize(
      std::min<size_t>(4096, shape->candidates.pairs.size()));
  shape->generator.set_parallelism(Parallelism::Serial());
  return *shape;
}

void BM_GenerateChunk(benchmark::State& state) {
  MatchShape& shape = SharedMatchShape(state.range(0));
  const PairSet& set = shape.candidates;
  FeatureGenerator::PreparedTables prepared =
      shape.generator.Prepare(set.left, set.right);
  for (auto _ : state) {
    Matrix X = shape.generator.GenerateChunk(prepared, set.pairs, 0,
                                             set.pairs.size());
    benchmark::DoNotOptimize(X.RowPtr(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(set.pairs.size()));
}
BENCHMARK(BM_GenerateChunk)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GenerateRowReference(benchmark::State& state) {
  MatchShape& shape = SharedMatchShape(state.range(0));
  const PairSet& set = shape.candidates;
  for (auto _ : state) {
    for (const RecordPair& pair : set.pairs) {
      std::vector<double> row = shape.generator.GenerateRow(
          set.left.row(pair.left_id), set.right.row(pair.right_id));
      benchmark::DoNotOptimize(row.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(set.pairs.size()));
}
BENCHMARK(BM_GenerateRowReference)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  return autoem::bench::RunGBenchMain(argc, argv);
}
