// Micro-benchmarks (google-benchmark) for the similarity-function and
// feature-generation substrate: these dominate AutoML-EM's featurization
// cost, so regressions here slow every experiment.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "bench/bench_gbench_report.h"
#include "common/rng.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
#include "text/interner.h"
#include "text/similarity.h"
#include "text/similarity_function.h"
#include "text/tokenizer.h"

namespace autoem {
namespace {

std::string MakeString(size_t words, uint64_t seed) {
  Rng rng(seed);
  std::string out;
  for (size_t i = 0; i < words; ++i) {
    if (i > 0) out += ' ';
    size_t len = 3 + rng.UniformIndex(7);
    for (size_t c = 0; c < len; ++c) {
      out += static_cast<char>('a' + rng.UniformIndex(26));
    }
  }
  return out;
}

// Interns a string's 3-grams into a sorted duplicate-free ID vector — the
// same per-record representation TableTokenCache builds once and every
// pair-level merge consumes.
std::vector<uint32_t> InternQGrams(std::string_view s,
                                   TokenInterner* interner) {
  QGramScratch scratch;
  std::vector<uint32_t> ids;
  for (std::string_view g : QGramTokenizeInto(s, 3, &scratch)) {
    ids.push_back(interner->IdOf(g));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void BM_LevenshteinDistance(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 1);
  std::string b = MakeString(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_LevenshteinDistance)->Arg(2)->Arg(8)->Arg(24);

// The scalar DP oracle on the same inputs: the in-binary denominator for the
// bit-parallel kernel's speedup claim (DESIGN.md §13).
void BM_LevenshteinReference(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 1);
  std::string b = MakeString(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_LevenshteinReference)->Arg(2)->Arg(8)->Arg(24);

// The quadratic alignment kernels and Jaro, each beside its scalar oracle:
// the 64-word rows are product-description length, where Jaro runs on
// multi-word bitsets and NW/SW on long anti-diagonals.
void BM_Jaro(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 3);
  std::string b = MakeString(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroSimilarity(a, b));
  }
}
BENCHMARK(BM_Jaro)->Arg(2)->Arg(8)->Arg(24)->Arg(64);

void BM_JaroReference(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 3);
  std::string b = MakeString(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::JaroSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroReference)->Arg(2)->Arg(8)->Arg(24)->Arg(64);

void BM_NeedlemanWunsch(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 12);
  std::string b = MakeString(state.range(0), 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NeedlemanWunsch(a, b));
  }
}
BENCHMARK(BM_NeedlemanWunsch)->Arg(2)->Arg(8)->Arg(24)->Arg(64);

void BM_NeedlemanWunschReference(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 12);
  std::string b = MakeString(state.range(0), 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::NeedlemanWunsch(a, b));
  }
}
BENCHMARK(BM_NeedlemanWunschReference)->Arg(2)->Arg(8)->Arg(24)->Arg(64);

void BM_SmithWaterman(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 14);
  std::string b = MakeString(state.range(0), 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmithWaterman(a, b));
  }
}
BENCHMARK(BM_SmithWaterman)->Arg(2)->Arg(8)->Arg(24)->Arg(64);

void BM_SmithWatermanReference(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 14);
  std::string b = MakeString(state.range(0), 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::SmithWaterman(a, b));
  }
}
BENCHMARK(BM_SmithWatermanReference)->Arg(2)->Arg(8)->Arg(24)->Arg(64);

// Both alignment scores from one pass, as pair featurization takes them:
// the denominator is BM_NeedlemanWunsch plus BM_SmithWaterman.
void BM_NeedlemanWunschAndSmithWaterman(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 12);
  std::string b = MakeString(state.range(0), 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NeedlemanWunschAndSmithWaterman(a, b));
  }
}
BENCHMARK(BM_NeedlemanWunschAndSmithWaterman)
    ->Arg(2)
    ->Arg(8)
    ->Arg(24)
    ->Arg(64);

void BM_JaroWinkler(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 3);
  std::string b = MakeString(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroWinkler)->Arg(2)->Arg(8)->Arg(24);

void BM_MongeElkan(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 5);
  std::string b = MakeString(state.range(0), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MongeElkan(a, b));
  }
}
BENCHMARK(BM_MongeElkan)->Arg(2)->Arg(8)->Arg(24);

// Per-pair cost of a 3-gram Jaccard feature as production pays it: the
// token cache interns each record's grams into a sorted ID vector *once*,
// so every pair evaluation is just the linear merge measured here.
// (Historically this case tokenized and hash-set-ed per call; that legacy
// path is kept below as BM_JaccardQGramPerCallStrings.)
void BM_JaccardQGram(benchmark::State& state) {
  TokenInterner interner;
  std::vector<uint32_t> a = InternQGrams(MakeString(state.range(0), 7),
                                         &interner);
  std::vector<uint32_t> b = InternQGrams(MakeString(state.range(0), 8),
                                         &interner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardSimilarityIds(a, b));
  }
}
BENCHMARK(BM_JaccardQGram)->Arg(2)->Arg(8)->Arg(24);

// The pre-interning implementation (allocate token strings, build two hash
// sets, probe): retained as the in-binary denominator for the merge kernel.
void BM_JaccardQGramPerCallStrings(benchmark::State& state) {
  std::string a = MakeString(state.range(0), 7);
  std::string b = MakeString(state.range(0), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaccardSimilarity(QGramTokenize(a, 3), QGramTokenize(b, 3)));
  }
}
BENCHMARK(BM_JaccardQGramPerCallStrings)->Arg(2)->Arg(8)->Arg(24);

// All four token-set measures over one interned ID pair — the per-pair cost
// of the full token-measure block in the Table II feature set.
void BM_AllTokenMeasuresIdsOnePair(benchmark::State& state) {
  TokenInterner interner;
  std::vector<uint32_t> a = InternQGrams(MakeString(8, 7), &interner);
  std::vector<uint32_t> b = InternQGrams(MakeString(8, 8), &interner);
  for (auto _ : state) {
    double sum = JaccardSimilarityIds(a, b) + CosineSimilarityIds(a, b) +
                 DiceSimilarityIds(a, b) + OverlapCoefficientIds(a, b);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AllTokenMeasuresIdsOnePair);

// Once-per-record cache-build cost: arena q-gram tokenization plus
// interning into a sorted ID vector. This is the work the token cache
// amortizes across every pair that touches the record.
void BM_QGramInternCacheBuild(benchmark::State& state) {
  std::string s = MakeString(8, 11);
  TokenInterner interner;
  QGramScratch scratch;
  std::vector<uint32_t> ids;
  for (auto _ : state) {
    ids.clear();
    for (std::string_view g : QGramTokenizeInto(s, 3, &scratch)) {
      ids.push_back(interner.IdOf(g));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_QGramInternCacheBuild);

void BM_AllStringFunctionsOnePair(benchmark::State& state) {
  std::string a = MakeString(8, 9);
  std::string b = MakeString(8, 10);
  const auto& funcs = AllStringFunctions();
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& f : funcs) sum += f.Apply(a, b);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AllStringFunctionsOnePair);

void BM_FeaturizeRestaurantPairs(benchmark::State& state) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 1, 0.2);
  if (!data.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  AutoMlEmFeatureGenerator generator;
  if (!generator.Plan(data->train.left, data->train.right).ok()) {
    state.SkipWithError("plan failed");
    return;
  }
  for (auto _ : state) {
    Dataset d = generator.Generate(data->train);
    benchmark::DoNotOptimize(d.X.rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data->train.pairs.size()));
}
BENCHMARK(BM_FeaturizeRestaurantPairs)->Unit(benchmark::kMillisecond);

void BM_GenerateBenchmark(benchmark::State& state) {
  auto profile = FindProfile("Amazon-Google");
  for (auto _ : state) {
    auto data = GenerateBenchmark(*profile, 42, 0.1);
    benchmark::DoNotOptimize(data.ok());
  }
  state.SetLabel("Amazon-Google @ scale 0.1");
}
BENCHMARK(BM_GenerateBenchmark)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace autoem

int main(int argc, char** argv) {
  return autoem::bench::RunGBenchMain(argc, argv);
}
