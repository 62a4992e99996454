// Quickstart: train an entity matcher on labeled candidate pairs and apply
// it to new pairs — the 30-line tour of the public API.
//
//   1. generate (or load) two tables plus labeled candidate pairs
//   2. EntityMatcher::Train  — feature generation + AutoML pipeline search
//   3. matcher.Evaluate / matcher.ScorePairs
#include <cstdio>

#include "datagen/benchmark_gen.h"
#include "em/matcher.h"

int main() {
  using namespace autoem;

  // A restaurant-matching workload (the paper's Fodors-Zagats profile,
  // scaled down). `train` and `test` each hold two tables + labeled pairs.
  auto data = GenerateBenchmarkByName("Fodors-Zagats", /*seed=*/42,
                                      /*scale=*/0.4);
  if (!data.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  std::printf("training pairs: %zu (%zu matches)\n",
              data->train.pairs.size(), data->train.NumPositives());

  // Train: AutoML-EM feature generation (Table II) + SMAC pipeline search.
  EntityMatcher::Options options;
  options.automl.max_evaluations = 12;  // search budget
  options.automl.seed = 1;
  auto matcher = EntityMatcher::Train(data->train, options);
  if (!matcher.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 matcher.status().ToString().c_str());
    return 1;
  }

  // Evaluate on held-out pairs.
  auto report = matcher->Evaluate(data->test);
  if (!report.ok()) return 1;
  std::printf("test precision=%.3f recall=%.3f F1=%.3f\n", report->precision,
              report->recall, report->f1);

  // Inspect the searched pipeline (paper Fig. 11 style).
  std::printf("\nbest pipeline:\n%s\n",
              matcher->automl_result().BestPipelineString().c_str());

  // Score a few individual candidate pairs.
  auto scores = matcher->ScorePairs(data->test);
  if (scores.ok()) {
    for (size_t i = 0; i < 5 && i < scores->size(); ++i) {
      const RecordPair& pair = data->test.pairs[i];
      std::printf("pair %zu: '%s' vs '%s' -> P(match)=%.2f (truth=%d)\n", i,
                  data->test.left.cell(pair.left_id, 0).ToString().c_str(),
                  data->test.right.cell(pair.right_id, 0).ToString().c_str(),
                  (*scores)[i], pair.label);
    }
  }
  return 0;
}
