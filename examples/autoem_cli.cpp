// autoem_cli — command-line entity matching over CSV files.
//
//   autoem_cli train-eval --train-a A.csv --train-b B.csv --train-pairs P.csv
//                         [--test-a ... --test-b ... --test-pairs ...]
//                         [--evals N] [--seed N] [--save-config cfg.txt]
//                         [--save-model model.aem] [--score-out scores.csv]
//       Trains AutoML-EM on the labeled training pairs, reports
//       precision/recall/F1 (on the test pairs when given, else on a held-out
//       fifth of the training pairs), prints the searched pipeline, and
//       optionally persists its configuration for warm-starting later runs
//       or the whole fitted model for `predict`. (`train` is an alias.)
//
//   autoem_cli match --train-a A.csv --train-b B.csv --train-pairs P.csv
//                    --cand-a CA.csv --cand-b CB.csv [--block-on attr]
//                    [--chunk-size N] [--threshold 0.5] [--out matches.csv]
//       Trains on the labeled pairs, then does what `predict` does with the
//       fitted model: blocks the candidate tables (q-gram on --block-on,
//       default: first attribute), scores every candidate pair in chunks,
//       and writes ltable_id,rtable_id,score,match rows.
//
//   autoem_cli predict --load-model model.aem --cand-a CA.csv --cand-b CB.csv
//                      [--pairs P.csv | --block-on attr] [--out pred.csv]
//                      [--chunk-size N] [--threshold 0.5] [--threads N]
//       Loads a model saved by train-eval (no training data needed) and
//       streams the candidate pairs through chunked scoring. Predictions
//       are bit-identical to the training process's.
//
//   autoem_cli report --trajectory curve.csv [--metrics metrics.json]
//                     [--trace trace.json] [--profile p.folded]
//                     [--out report.html] [--title T]
//       Joins a profiled run's artifacts (train-eval --save-trajectory,
//       --metrics-out, --trace-out, --profile-out) into one self-contained
//       HTML report: tuning curve, per-trial resource table, failure
//       summary, thread-pool timeline, cache stats, CPU flamegraph, and —
//       when a trace is given — the "where the time went" critical-path
//       section. Works with any subset: a trace alone still renders the
//       timeline/critical-path sections ("not recorded" elsewhere).
//
//   autoem_cli trace-analyze --trace trace.json [--json-out analysis.json]
//       Post-processes a --trace-out file (spans + thread-pool flow events)
//       into the run's critical path, a per-span self/wait/child blame
//       table, and the queue-delay distribution. Text to stdout; --json-out
//       writes the same analysis machine-readably for CI assertions.
//
// Pairs CSVs use the export_datasets layout: ltable_id,rtable_id,label.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "automl/config_io.h"
#include "em/blocking.h"
#include "fault/failpoint.h"
#include "em/matcher.h"
#include "em/pairs_io.h"
#include "io/atomic_file.h"
#include "io/model_io.h"
#include "obs/critical_path.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "table/csv.h"

using namespace autoem;

namespace {

struct Flags {
  std::map<std::string, std::string> values;

  // Accepts `--key value`, `--key=value`, and bare boolean flags
  // (`--resume`): a flag whose next token is absent or itself a flag
  // stores "1".
  static Flags Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags.values[arg.substr(2)] = argv[++i];
      } else {
        flags.values[arg.substr(2)] = "1";
      }
    }
    return flags;
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

[[noreturn]] void Fail(const std::string& message) {
  // Through the structured sink: the message lands in the JSONL log file
  // when one is open, and on stderr (leveled, timestamped) otherwise.
  AUTOEM_LOG(ERROR) << message;
  std::exit(1);
}

obs::ObsOptions ObsFromFlags(const Flags& flags) {
  obs::ObsOptions obs;
  obs.log_level = flags.Get("log-level");
  obs.trace_path = flags.Get("trace-out");
  obs.metrics_path = flags.Get("metrics-out");
  std::string resources = flags.Get("resources", "0");
  obs.resources =
      !(resources == "0" || resources == "false" || resources == "off");
  obs.metrics_flush_interval =
      std::atof(flags.Get("metrics-flush-interval", "0").c_str());
  obs.metrics_format = flags.Get("metrics-format");
  obs.profile_path = flags.Get("profile-out");
  obs.profile_hz = std::atof(flags.Get("profile-hz", "0").c_str());
  return obs;
}

Table MustReadCsv(const std::string& path, const std::string& name) {
  if (path.empty()) Fail("missing required CSV path for " + name);
  auto table = ReadCsv(path, name);
  if (!table.ok()) Fail(path + ": " + table.status().ToString());
  return std::move(*table);
}

// Reads a ltable_id,rtable_id,label pairs CSV against two tables.
std::vector<RecordPair> MustReadPairs(const std::string& path,
                                      const Table& left, const Table& right) {
  Table raw = MustReadCsv(path, "pairs");
  auto pairs = PairsFromTable(raw, left.num_rows(), right.num_rows());
  if (!pairs.ok()) Fail(path + ": " + pairs.status().ToString());
  return std::move(*pairs);
}

// Writes ltable_id,rtable_id,score,match rows. Scores are printed with
// %.17g (round-trip precision for doubles) so two runs of the same model
// can be compared with a plain byte-wise diff.
void WriteScoresCsv(const std::vector<RecordPair>& pairs,
                    const std::vector<double>& scores, double threshold,
                    const std::string& path, size_t* n_matches_out) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) Fail("cannot open " + path + " for writing");
  std::fprintf(f, "ltable_id,rtable_id,score,match\n");
  size_t n_matches = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    int is_match = scores[i] >= threshold ? 1 : 0;
    n_matches += is_match;
    std::fprintf(f, "%zu,%zu,%.17g,%d\n", pairs[i].left_id,
                 pairs[i].right_id, scores[i], is_match);
  }
  if (std::fclose(f) != 0) Fail("write failed: " + path);
  if (n_matches_out != nullptr) *n_matches_out = n_matches;
}

EntityMatcher TrainMatcher(const Flags& flags, PairSet* train_out) {
  PairSet train;
  train.left = MustReadCsv(flags.Get("train-a"), "train_a");
  train.right = MustReadCsv(flags.Get("train-b"), "train_b");
  if (!(train.left.schema() == train.right.schema())) {
    Fail("train tables must share a schema");
  }
  train.pairs = MustReadPairs(flags.Get("train-pairs"), train.left,
                              train.right);

  EntityMatcher::Options options;
  options.automl.max_evaluations =
      std::atoi(flags.Get("evals", "20").c_str());
  options.automl.seed =
      static_cast<uint64_t>(std::atoll(flags.Get("seed", "1").c_str()));
  // --threads N: 0 = all hardware threads, 1 (default) = serial. Results
  // are identical at any setting; only wall-clock changes.
  options.automl.parallelism.threads =
      std::atoi(flags.Get("threads", "1").c_str());
  options.automl.obs = ObsFromFlags(flags);
  // Fault tolerance: per-trial deadline plus crash-safe checkpoint/resume.
  options.automl.max_trial_seconds =
      std::atof(flags.Get("max-trial-seconds", "0").c_str());
  options.automl.checkpoint.path = flags.Get("checkpoint");
  options.automl.checkpoint.every_n_trials =
      std::atoi(flags.Get("checkpoint-every", "5").c_str());
  options.automl.checkpoint.resume = flags.Has("resume");
  if (options.automl.checkpoint.resume &&
      options.automl.checkpoint.path.empty()) {
    Fail("--resume requires --checkpoint=path");
  }
  if (flags.Has("warm-start")) {
    auto config = LoadConfiguration(flags.Get("warm-start"));
    if (!config.ok()) Fail(config.status().ToString());
    options.automl.warm_start_configs.push_back(*config);
  }

  std::printf("training on %zu labeled pairs (%zu matches), %d pipeline "
              "evaluations...\n",
              train.pairs.size(), train.NumPositives(),
              options.automl.max_evaluations);
  auto matcher = EntityMatcher::Train(train, options);
  if (!matcher.ok()) Fail(matcher.status().ToString());
  if (train_out != nullptr) *train_out = std::move(train);
  return std::move(*matcher);
}

int RunTrainEval(const Flags& flags) {
  PairSet train;
  EntityMatcher matcher = TrainMatcher(flags, &train);
  std::printf("best validation F1: %.3f\n",
              matcher.automl_result().best_valid_f1);
  std::printf("\nsearched pipeline:\n%s\n",
              matcher.automl_result().BestPipelineString().c_str());

  if (flags.Has("test-pairs")) {
    PairSet test;
    test.left = MustReadCsv(flags.Get("test-a"), "test_a");
    test.right = MustReadCsv(flags.Get("test-b"), "test_b");
    test.pairs = MustReadPairs(flags.Get("test-pairs"), test.left,
                               test.right);
    auto scores = matcher.ScorePairs(test);
    if (!scores.ok()) Fail(scores.status().ToString());
    MatchReport report = ReportAtThreshold(test, *scores, 0.5);
    std::printf("\ntest (%zu pairs, %zu matches): precision=%.3f "
                "recall=%.3f F1=%.3f\n",
                report.num_pairs, report.num_positives, report.precision,
                report.recall, report.f1);

    // --score-out: the per-pair test scores, byte-comparable against a
    // `predict` run on the same pairs with the saved model.
    if (flags.Has("score-out")) {
      double threshold = std::atof(flags.Get("threshold", "0.5").c_str());
      WriteScoresCsv(test.pairs, *scores, threshold, flags.Get("score-out"),
                     nullptr);
      std::printf("wrote %zu test-pair scores to %s\n", scores->size(),
                  flags.Get("score-out").c_str());
    }
  } else if (flags.Has("score-out")) {
    Fail("--score-out requires --test-pairs");
  }

  if (flags.Has("save-config")) {
    Status st = SaveConfiguration(matcher.automl_result().best_config,
                                  flags.Get("save-config"));
    if (!st.ok()) Fail(st.ToString());
    std::printf("\nsaved pipeline configuration to %s (reuse via "
                "--warm-start)\n",
                flags.Get("save-config").c_str());
  }

  if (flags.Has("save-trajectory")) {
    Status st = SaveTrajectory(matcher.automl_result().trajectory,
                               flags.Get("save-trajectory"));
    if (!st.ok()) Fail(st.ToString());
    std::printf("saved search trajectory (%zu trials) to %s\n",
                matcher.automl_result().trajectory.size(),
                flags.Get("save-trajectory").c_str());
  }

  if (flags.Has("save-model")) {
    Status st = io::SaveModel(matcher, flags.Get("save-model"));
    if (!st.ok()) Fail(st.ToString());
    std::printf("saved fitted model to %s (score new pairs via "
                "`autoem_cli predict --load-model`)\n",
                flags.Get("save-model").c_str());
  }
  return 0;
}

PairSet MustReadCandidates(const Flags& flags) {
  PairSet candidates;
  candidates.left = MustReadCsv(flags.Get("cand-a"), "cand_a");
  candidates.right = MustReadCsv(flags.Get("cand-b"), "cand_b");
  return candidates;
}

// Q-gram blocks the candidate tables on --block-on (default: the first
// attribute).
void MustBlock(const Flags& flags, PairSet* candidates) {
  std::string block_attr =
      flags.Get("block-on", candidates->left.schema().num_attributes() > 0
                                ? candidates->left.schema().name(0)
                                : "");
  QGramBlocker blocker(block_attr, 3);
  auto blocked = blocker.Block(candidates->left, candidates->right);
  if (!blocked.ok()) Fail(blocked.status().ToString());
  candidates->pairs = std::move(*blocked);
  std::printf("blocking on '%s': %zu x %zu records -> %zu candidate pairs\n",
              block_attr.c_str(), candidates->left.num_rows(),
              candidates->right.num_rows(), candidates->pairs.size());
}

// Scores every candidate pair in --chunk-size chunks and writes the scores
// to --out (default `default_out`), called a match at --threshold.
void MustScoreToCsv(const EntityMatcher& matcher, const PairSet& candidates,
                    const Flags& flags, const char* default_out) {
  size_t chunk_size =
      static_cast<size_t>(std::atoll(flags.Get("chunk-size", "4096").c_str()));
  auto scores = matcher.ScorePairs(candidates, chunk_size);
  if (!scores.ok()) Fail(scores.status().ToString());

  double threshold = std::atof(flags.Get("threshold", "0.5").c_str());
  std::string out_path = flags.Get("out", default_out);
  size_t n_matches = 0;
  WriteScoresCsv(candidates.pairs, *scores, threshold, out_path, &n_matches);
  std::printf("%zu/%zu candidates matched at threshold %.2f -> %s\n",
              n_matches, candidates.pairs.size(), threshold,
              out_path.c_str());
}

int RunPredict(const Flags& flags) {
  if (!flags.Has("load-model")) Fail("predict requires --load-model");
  auto matcher = io::LoadModel(flags.Get("load-model"));
  if (!matcher.ok()) {
    Fail(flags.Get("load-model") + ": " + matcher.status().ToString());
  }
  Parallelism parallelism;
  parallelism.threads = std::atoi(flags.Get("threads", "1").c_str());
  matcher->SetParallelism(parallelism);

  PairSet candidates = MustReadCandidates(flags);
  if (flags.Has("pairs")) {
    candidates.pairs = MustReadPairs(flags.Get("pairs"), candidates.left,
                                     candidates.right);
    std::printf("scoring %zu candidate pairs from %s\n",
                candidates.pairs.size(), flags.Get("pairs").c_str());
  } else {
    MustBlock(flags, &candidates);
  }
  MustScoreToCsv(*matcher, candidates, flags, "predictions.csv");
  return 0;
}

int RunMatch(const Flags& flags) {
  EntityMatcher matcher = TrainMatcher(flags, nullptr);
  PairSet candidates = MustReadCandidates(flags);
  MustBlock(flags, &candidates);
  MustScoreToCsv(matcher, candidates, flags, "matches.csv");
  return 0;
}

int RunReport(const Flags& flags) {
  // A trace alone is enough for the timeline / critical-path sections; the
  // trial sections then render "not recorded" instead of erroring.
  if (!flags.Has("trajectory") && !flags.Has("trace")) {
    Fail("report requires --trajectory and/or --trace");
  }

  obs::ReportInputs inputs;
  inputs.title = flags.Get("title");
  Status st;
  if (flags.Has("trajectory")) {
    st = io::ReadFileToString(flags.Get("trajectory"), &inputs.trajectory_csv);
    if (!st.ok()) Fail(st.ToString());
  }
  if (flags.Has("metrics")) {
    st = io::ReadFileToString(flags.Get("metrics"), &inputs.metrics_text);
    if (!st.ok()) Fail(st.ToString());
  }
  if (flags.Has("trace")) {
    st = io::ReadFileToString(flags.Get("trace"), &inputs.trace_json);
    if (!st.ok()) Fail(st.ToString());
  }
  if (flags.Has("profile")) {
    st = io::ReadFileToString(flags.Get("profile"), &inputs.profile_folded);
    if (!st.ok()) Fail(st.ToString());
  }

  std::string html = obs::BuildRunReportHtml(inputs);
  std::string out_path = flags.Get("out", "report.html");
  st = io::AtomicWriteFile(out_path, html);
  if (!st.ok()) Fail(st.ToString());
  std::printf("wrote run report (%zu bytes%s%s%s) to %s\n", html.size(),
              inputs.metrics_text.empty() ? "" : ", with metrics",
              inputs.trace_json.empty() ? "" : ", with trace",
              inputs.profile_folded.empty() ? "" : ", with profile",
              out_path.c_str());
  return 0;
}

int RunTraceAnalyze(const Flags& flags) {
  if (!flags.Has("trace")) Fail("trace-analyze requires --trace");
  std::string trace_json;
  Status st = io::ReadFileToString(flags.Get("trace"), &trace_json);
  if (!st.ok()) Fail(st.ToString());
  auto analysis = obs::AnalyzeTraceJson(trace_json);
  if (!analysis.ok()) {
    Fail(flags.Get("trace") + ": " + analysis.status().ToString());
  }
  std::string text = obs::FormatAnalysisText(*analysis);
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (flags.Has("json-out")) {
    std::string json = obs::AnalysisJson(*analysis) + "\n";
    st = io::AtomicWriteFile(flags.Get("json-out"), json);
    if (!st.ok()) Fail(st.ToString());
    std::printf("\nwrote analysis JSON (%zu bytes) to %s\n", json.size(),
                flags.Get("json-out").c_str());
  }
  return 0;
}

void PrintUsage() {
  std::printf(
      "usage:\n"
      "  autoem_cli train-eval --train-a A.csv --train-b B.csv "
      "--train-pairs P.csv\n"
      "             [--test-a ... --test-b ... --test-pairs ...]\n"
      "             [--evals N] [--seed N] [--threads N] "
      "[--save-config cfg.txt] [--warm-start cfg.txt]\n"
      "             [--save-trajectory curve.csv] [--save-model model.aem]\n"
      "             [--score-out scores.csv]   (`train` is an alias)\n"
      "             [--checkpoint ckpt.aemk] [--checkpoint-every N] "
      "[--resume]\n"
      "             [--max-trial-seconds S]\n"
      "  autoem_cli match --train-a A.csv --train-b B.csv --train-pairs "
      "P.csv\n"
      "             --cand-a CA.csv --cand-b CB.csv [--block-on attr]\n"
      "             [--chunk-size N] [--threshold T] [--threads N]\n"
      "             [--out matches.csv]\n"
      "  autoem_cli predict --load-model model.aem --cand-a CA.csv "
      "--cand-b CB.csv\n"
      "             [--pairs P.csv | --block-on attr] [--out "
      "predictions.csv]\n"
      "             [--chunk-size N] [--threshold T] [--threads N]\n"
      "  autoem_cli report [--trajectory curve.csv] [--metrics metrics.json]\n"
      "             [--trace trace.json] [--profile p.folded]\n"
      "             [--out report.html] [--title T]\n"
      "             (needs --trajectory and/or --trace; sections without\n"
      "             their artifact render \"not recorded\")\n"
      "  autoem_cli trace-analyze --trace trace.json [--json-out a.json]\n"
      "             critical path + per-span self/wait/child blame table\n"
      "             (\"where the time went\") from a --trace-out file\n"
      "\n"
      "  predict loads a model saved by train-eval --save-model and scores\n"
      "  pairs without any training data; given --pairs it scores exactly\n"
      "  those pairs, otherwise it blocks the candidate tables first.\n"
      "  Scores are written with full precision and are bit-identical to\n"
      "  the saving process at any --threads / --chunk-size. match trains\n"
      "  and then blocks, scores and writes exactly as predict does.\n"
      "\n"
      "  --threads N uses N worker threads for featurization and forest\n"
      "  training (0 = all hardware threads; default 1). Output is\n"
      "  bit-identical at any thread count.\n"
      "\n"
      "fault tolerance (train-eval):\n"
      "  --checkpoint F        write a crash-safe search checkpoint to F\n"
      "                        every --checkpoint-every trials (default 5)\n"
      "  --resume              continue a killed run from --checkpoint; the\n"
      "                        final model is bit-identical to an\n"
      "                        uninterrupted run\n"
      "  --max-trial-seconds S cancel and quarantine any single pipeline\n"
      "                        trial running past S seconds\n"
      "\n"
      "observability (all subcommands; flags accept --k v or --k=v):\n"
      "  --log-level L     trace|debug|info|warn|error|off (default warn)\n"
      "  --trace-out F     write a Chrome trace_event JSON (open in\n"
      "                    chrome://tracing or https://ui.perfetto.dev)\n"
      "  --metrics-out F   write a counters/gauges/histograms snapshot\n"
      "  --metrics-format F json (default) | jsonl | openmetrics\n"
      "  --metrics-flush-interval S\n"
      "                    rewrite the metrics file atomically every S\n"
      "                    seconds while running (live telemetry; jsonl\n"
      "                    accumulates an append-only time series)\n"
      "  --resources       attach resource probes: per-trial/fold/iteration\n"
      "                    CPU, peak-RSS delta, allocation counts, pool\n"
      "                    wait/run split (flows into the trajectory CSV\n"
      "                    and report; not checkpointed, so trials a\n"
      "                    resumed run restores show as unmeasured)\n"
      "  --profile-out F   sample a CPU profile during the run and write it\n"
      "                    in collapsed-stack format (flamegraph.pl /\n"
      "                    speedscope / `report --profile` compatible);\n"
      "                    samples are attributed to the innermost span\n"
      "  --profile-hz N    profiler sampling rate (default 97 Hz)\n"
      "  Instrumentation never changes results: search output is\n"
      "  bit-identical with tracing, probes, and the profiler on or off.\n"
      "\n"
      "  report joins those artifacts into one self-contained HTML file:\n"
      "    autoem_cli train-eval ... --resources --save-trajectory t.csv\n"
      "        --metrics-out m.jsonl --metrics-format=jsonl\n"
      "        --metrics-flush-interval=1 --trace-out tr.json\n"
      "        --profile-out p.folded\n"
      "    autoem_cli report --trajectory t.csv --metrics m.jsonl\n"
      "        --trace tr.json --profile p.folded --out report.html\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  // Fault injection for CI/dev runs, e.g.
  // AUTOEM_FAILPOINTS="evaluator.fit=sleep:200" slows every trial so a
  // kill-and-resume test can land its SIGKILL between checkpoints.
  if (const char* failpoints = std::getenv("AUTOEM_FAILPOINTS")) {
    Status st = fault::FailpointRegistry::Global().ArmFromSpec(failpoints);
    if (!st.ok()) Fail("AUTOEM_FAILPOINTS: " + st.ToString());
  }
  Flags flags = Flags::Parse(argc, argv, 2);
  // Name the main thread before the session starts tracing so the trace's
  // thread_name metadata covers it alongside worker-N / flusher.
  obs::SetCurrentThreadName("main");
  // Top-level session: owns the trace for the whole invocation (the nested
  // sessions inside the library piggyback on it) and writes trace/metrics
  // when main returns.
  obs::ObsSession obs_session(ObsFromFlags(flags));
  if (std::strcmp(argv[1], "train-eval") == 0 ||
      std::strcmp(argv[1], "train") == 0) {
    return RunTrainEval(flags);
  }
  if (std::strcmp(argv[1], "match") == 0) return RunMatch(flags);
  if (std::strcmp(argv[1], "predict") == 0) return RunPredict(flags);
  if (std::strcmp(argv[1], "report") == 0) return RunReport(flags);
  if (std::strcmp(argv[1], "trace-analyze") == 0) {
    return RunTraceAnalyze(flags);
  }
  PrintUsage();
  return 1;
}
