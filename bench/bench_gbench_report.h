#ifndef AUTOEM_BENCH_BENCH_GBENCH_REPORT_H_
#define AUTOEM_BENCH_BENCH_GBENCH_REPORT_H_

// Shared main() body for the google-benchmark binaries, replacing
// BENCHMARK_MAIN(): peels the autoem flags (--json-out=, the obs flags) off
// the command line before google-benchmark parses it, opens the process's
// ObsSession, and runs the suite under a reporter that tees every finished
// run into the standardized BenchReport schema — so `--json-out=F` produces
// the same {name, params, counters, seconds} artifact from a micro-bench as
// from a paper-figure bench.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "obs/obs.h"

namespace autoem {
namespace bench {

/// Console output as usual, plus one BenchCase per per-iteration run
/// (aggregates and errored runs are skipped — the raw runs carry the data).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      BenchCase c;
      c.name = run.benchmark_name();
      double iters = run.iterations > 0
                         ? static_cast<double>(run.iterations)
                         : 1.0;
      c.seconds = run.real_accumulated_time / iters;
      c.counters["iterations"] = static_cast<double>(run.iterations);
      c.counters["cpu_seconds"] = run.cpu_accumulated_time / iters;
      for (const auto& [name, counter] : run.counters) {
        c.counters[name] = counter.value;
      }
      BenchReport::Global().Add(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// Drop-in main body:
///   int main(int argc, char** argv) {
///     return autoem::bench::RunGBenchMain(argc, argv);
///   }
/// An obs flag with a bad value returns 2 before any benchmark runs.
inline int RunGBenchMain(int argc, char** argv) {
  obs::ObsOptions obs;
  std::string json_out;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--json-out=")) {
      json_out = arg.substr(11);
      continue;
    }
    Result<bool> obs_flag = false;  // argv[0] is the program
    if (i > 0) obs_flag = obs::ParseObsFlag(arg, &obs);
    if (!obs_flag.ok()) {
      std::fprintf(stderr, "%s\n", obs_flag.status().message().c_str());
      return 2;
    }
    if (!*obs_flag) passthrough.push_back(argv[i]);
  }
  obs::ObsSession session(obs);
  if (!json_out.empty()) BenchReport::Global().SetPath(json_out);

  int filtered_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             passthrough.data())) {
    return 1;
  }
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Explicit flush (the atexit hook also covers std::exit paths) so the
  // artifact is complete before the ObsSession writes its own outputs.
  BenchReport::Global().Flush();
  return 0;
}

}  // namespace bench
}  // namespace autoem

#endif  // AUTOEM_BENCH_BENCH_GBENCH_REPORT_H_
