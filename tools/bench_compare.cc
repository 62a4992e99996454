// bench_compare: noise-aware diff of standardized bench artifacts.
//
//   bench_compare [--check] [--noise=0.08] [--min-seconds=1e-6]
//                 [--json-out=verdict.json] BASELINE CURRENT [CURRENT...]
//   bench_compare --merge-out=baseline.json RUN1.json [RUN2.json ...]
//
// BASELINE and CURRENT accept either a single `--json-out` artifact or a
// directory of them (every *.json inside, e.g. `bench/baselines/`). Several
// CURRENT run files are min-merged per case before comparison (best-of-N),
// which is how the CI perf-gate runs each gated bench 5x and still gets a
// stable verdict out of a noisy runner.
//
// --noise and --min-seconds must be finite and >= 0; a bad value exits 2
// naming the flag.
//
// Verdicts per case: ok | improved | regressed | skipped (under
// --min-seconds) | missing_in_current | new. With --check the process exits
// 1 when any case regressed beyond the +/-noise band or a timed baseline
// case disappeared; 0 otherwise. Usage / IO / parse errors exit 2.
//
// --merge-out min-merges the given run files into one artifact in the
// standard schema — the recipe for (re)generating `bench/baselines/`.
#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "io/atomic_file.h"
#include "tools/bench_compare_lib.h"

namespace autoem {
namespace tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare [--check] [--noise=F] [--min-seconds=S]\n"
      "                     [--json-out=F] BASELINE CURRENT [CURRENT...]\n"
      "       bench_compare --merge-out=F RUN1.json [RUN2.json ...]\n"
      "BASELINE/CURRENT: a --json-out artifact or a directory of them.\n");
  return 2;
}

/// Reads `flag`'s value as one finite number >= 0 into *out, or prints an
/// error naming the flag and returns false.
bool NonNegative(const char* flag, const std::string& value, double* out) {
  auto number = ParseNumber(value, 0.0, std::numeric_limits<double>::max());
  if (!number.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", flag,
                 number.status().message().c_str());
    return false;
  }
  *out = *number;
  return true;
}

/// A path argument expands to itself, or — for a directory — to every
/// *.json file inside, sorted for determinism.
bool ExpandPath(const std::string& path, std::vector<std::string>* out) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    out->push_back(path);  // plain file; open errors surface at load
    return true;
  }
  std::vector<std::string> found;
  while (dirent* entry = readdir(dir)) {
    std::string name = entry->d_name;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      found.push_back(path + "/" + name);
    }
  }
  closedir(dir);
  if (found.empty()) {
    std::fprintf(stderr, "bench_compare: no *.json files in %s\n",
                 path.c_str());
    return false;
  }
  std::sort(found.begin(), found.end());
  out->insert(out->end(), found.begin(), found.end());
  return true;
}

int Main(int argc, char** argv) {
  CompareOptions options;
  bool check = false;
  std::string json_out, merge_out;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--noise=", 0) == 0) {
      if (!NonNegative("--noise", arg.substr(8), &options.noise)) return 2;
    } else if (arg.rfind("--min-seconds=", 0) == 0) {
      if (!NonNegative("--min-seconds", arg.substr(14), &options.min_seconds)) {
        return 2;
      }
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else if (arg.rfind("--merge-out=", 0) == 0) {
      merge_out = arg.substr(12);
    } else if (arg == "--help" || arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (!merge_out.empty()) {
    if (positional.empty()) return Usage();
    std::vector<std::string> files;
    for (const std::string& p : positional) {
      if (!ExpandPath(p, &files)) return 2;
    }
    auto merged = LoadBenchFiles(files);
    if (!merged.ok()) {
      std::fprintf(stderr, "bench_compare: %s\n",
                   merged.status().ToString().c_str());
      return 2;
    }
    Status st = io::AtomicWriteFile(merge_out, SerializeBenchFile(*merged));
    if (!st.ok()) {
      std::fprintf(stderr, "bench_compare: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("merged %zu run file(s), %zu case(s) -> %s\n", files.size(),
                merged->cases.size(), merge_out.c_str());
    return 0;
  }

  if (positional.size() < 2) return Usage();
  std::vector<std::string> baseline_files, current_files;
  if (!ExpandPath(positional[0], &baseline_files)) return 2;
  for (size_t i = 1; i < positional.size(); ++i) {
    if (!ExpandPath(positional[i], &current_files)) return 2;
  }
  auto baseline = LoadBenchFiles(baseline_files);
  if (!baseline.ok()) {
    std::fprintf(stderr, "bench_compare: baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto current = LoadBenchFiles(current_files);
  if (!current.ok()) {
    std::fprintf(stderr, "bench_compare: current: %s\n",
                 current.status().ToString().c_str());
    return 2;
  }
  // Cross-machine comparisons are valid to *run* (a local dev box checking
  // against CI baselines) but the verdict is advisory, so say so.
  auto meta = [](const BenchFile& f, const char* key) {
    auto it = f.meta.find(key);
    return it == f.meta.end() ? std::string("unknown") : it->second;
  };
  std::string base_cpu = meta(*baseline, "cpu_model");
  std::string cur_cpu = meta(*current, "cpu_model");
  if (base_cpu != cur_cpu) {
    std::fprintf(stderr,
                 "bench_compare: warning: cpu_model differs "
                 "(baseline: %s; current: %s) — ratios may reflect "
                 "hardware, not code\n",
                 base_cpu.c_str(), cur_cpu.c_str());
  }

  CompareReport report = CompareBench(*baseline, *current, options);
  std::fputs(CompareReportText(report).c_str(), stdout);
  if (!json_out.empty()) {
    Status st = io::AtomicWriteFile(json_out, CompareReportJson(report));
    if (!st.ok()) {
      std::fprintf(stderr, "bench_compare: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  return (check && report.Failed()) ? 1 : 0;
}

}  // namespace
}  // namespace tools
}  // namespace autoem

int main(int argc, char** argv) { return autoem::tools::Main(argc, argv); }
