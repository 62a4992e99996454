#ifndef AUTOEM_BENCH_BENCH_UTIL_H_
#define AUTOEM_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction benchmark binaries. Every bench
// accepts:
//   --scale=<f>   dataset size multiplier vs the paper's Table III
//                 (default below 1.0 to keep single-core runtimes sane)
//   --evals=<n>   pipeline-search evaluation budget (the stand-in for the
//                 paper's wall-clock budget; see DESIGN.md)
//   --seed=<n>    RNG seed
//   --threads=<n> worker threads (0 = all hardware threads)
//   --datasets=a,b  comma-separated subset of Table III dataset names
//   --json-out=<f>  standardized results artifact: every reported case in
//                 the common {name, params, counters, seconds} schema (the
//                 CI bench-snapshot job uploads these as BENCH_*.json)
// plus the shared observability flags (see src/obs/obs.h):
//   --log-level=<l> --trace-out=<f> --metrics-out=<f> --metrics-format=<f>
//   --metrics-flush-interval=<s> --resources --profile-out=<f>
//   --profile-hz=<n>
// A numeric flag must be one finite number in its range (--scale > 0,
// --evals >= 1, --threads 0..1024, as autoem_cli checks them); anything
// else exits 2 naming the flag. A bench run with --metrics-out gets the
// full autoem::obs metrics snapshot (counters/gauges/histograms JSON)
// written at exit — including any bench-reported figures recorded via
// ReportBenchMetric below. This replaces ad-hoc per-bench JSON counter
// dumps.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallelism.h"
#include "common/string_util.h"
#include "datagen/benchmark_gen.h"
#include "features/feature_gen.h"
#include "io/atomic_file.h"
#include "ml/dataset.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace autoem {
namespace bench {

/// One measured case in the standardized bench output schema. Every bench
/// binary — google-benchmark micro-benches (via the tee reporter in
/// bench_gbench_report.h) and the paper-figure benches (via
/// ReportBenchMetric / ReportBenchCase) — serializes its results as a list
/// of these, so CI can diff BENCH_*.json artifacts across runs without
/// per-bench parsers.
struct BenchCase {
  std::string name;
  /// Workload identification: dataset, scale, threads, ... (strings so the
  /// schema stays closed under any flag type).
  std::map<std::string, std::string> params;
  /// Measured figures other than time: items/s, F1, speedup, iterations.
  std::map<std::string, double> counters;
  /// Wall-clock seconds per iteration of the measured region (0 when the
  /// case is a dimensionless figure).
  double seconds = 0.0;
};

/// Machine/build provenance stamped into every --json-out artifact so a
/// BENCH_*.json is interpretable (and comparable) on its own: a baseline
/// diff against a file from different hardware or an unknown commit is a
/// judgement call, and the metadata is what makes it visible.
struct BenchMeta {
  std::string git_sha;    // $GITHUB_SHA / $AUTOEM_GIT_SHA, else "unknown"
  std::string cpu_model;  // /proc/cpuinfo "model name", else "unknown"
  unsigned threads = 0;   // hardware threads on the machine that ran it

  static BenchMeta Collect() {
    BenchMeta meta;
    const char* sha = std::getenv("GITHUB_SHA");
    if (sha == nullptr || *sha == '\0') sha = std::getenv("AUTOEM_GIT_SHA");
    meta.git_sha = (sha != nullptr && *sha != '\0') ? sha : "unknown";
    meta.cpu_model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      if (line.compare(0, 10, "model name") == 0) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) meta.cpu_model = line.substr(start);
        break;
      }
    }
    meta.threads = std::thread::hardware_concurrency();
    return meta;
  }
};

/// Process-global collector behind `--json-out=F`: cases accumulate here
/// and are written once, atomically, at process exit (and on Flush()).
class BenchReport {
 public:
  static BenchReport& Global() {
    static BenchReport* report = new BenchReport;
    return *report;
  }

  void Add(BenchCase c) {
    std::lock_guard<std::mutex> lock(mu_);
    cases_.push_back(std::move(c));
  }

  /// Arms the at-exit write. Safe to call at most once per process (extra
  /// calls just update the path).
  void SetPath(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    bool arm = path_.empty() && !path.empty();
    path_ = path;
    if (arm) std::atexit(&BenchReport::FlushAtExit);
  }

  /// `{"meta":{git_sha,cpu_model,threads},"cases":[{name, params,
  /// counters, seconds}, ...]}`
  std::string ToJson() const {
    BenchMeta meta = BenchMeta::Collect();
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"meta\":{\"git_sha\":" + obs::JsonQuote(meta.git_sha) +
                      ",\"cpu_model\":" + obs::JsonQuote(meta.cpu_model) +
                      ",\"threads\":" + std::to_string(meta.threads) +
                      "},\"cases\":[";
    for (size_t i = 0; i < cases_.size(); ++i) {
      const BenchCase& c = cases_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "{\"name\":" + obs::JsonQuote(c.name) + ",\"params\":{";
      bool first = true;
      for (const auto& [k, v] : c.params) {
        if (!first) out += ",";
        first = false;
        out += obs::JsonQuote(k) + ":" + obs::JsonQuote(v);
      }
      out += "},\"counters\":{";
      first = true;
      for (const auto& [k, v] : c.counters) {
        if (!first) out += ",";
        first = false;
        out += obs::JsonQuote(k) + ":" + obs::JsonNumber(v);
      }
      out += "},\"seconds\":" + obs::JsonNumber(c.seconds) + "}";
    }
    out += "\n]}\n";
    return out;
  }

  void Flush() {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      path = path_;
    }
    if (path.empty()) return;
    Status st = io::AtomicWriteFile(path, ToJson());
    if (!st.ok()) {
      AUTOEM_LOG(WARN) << "bench: failed to write " << path << ": "
                       << st.ToString();
    }
  }

 private:
  BenchReport() = default;
  static void FlushAtExit() { Global().Flush(); }

  mutable std::mutex mu_;
  std::string path_;
  std::vector<BenchCase> cases_;
};

struct BenchArgs {
  double scale = 0.2;
  int evals = 20;
  uint64_t seed = 42;
  /// Standardized bench output: when non-empty, every ReportBenchMetric /
  /// ReportBenchCase call accumulates into BenchReport and the whole run is
  /// written to this path as `{"cases":[{name,params,counters,seconds}]}`.
  std::string json_out;
  /// Worker threads for the parallel hot paths (0 = hardware, 1 = serial).
  /// Results are bit-identical at any setting; benches that care report
  /// serial-vs-parallel speedup explicitly.
  int threads = 1;
  std::vector<std::string> datasets;  // empty = all
  obs::ObsOptions obs;
  /// The process's ObsSession, held for the bench's lifetime; writes
  /// --trace-out/--metrics-out/--profile-out at process exit. Shared so
  /// BenchArgs stays copyable.
  std::shared_ptr<obs::ObsSession> session;

  /// Parses the flags and opens the process's ObsSession; call it once.
  static BenchArgs Parse(int argc, char** argv, double default_scale = 0.2,
                         int default_evals = 20) {
    BenchArgs args;
    args.scale = default_scale;
    args.evals = default_evals;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (StartsWith(arg, "--scale=")) {
        Number("--scale", arg.substr(8),
               std::numeric_limits<double>::denorm_min(),
               std::numeric_limits<double>::max(), &args.scale);
      } else if (StartsWith(arg, "--evals=")) {
        Number("--evals", arg.substr(8), 1, INT_MAX, &args.evals);
      } else if (StartsWith(arg, "--seed=")) {
        Number("--seed", arg.substr(7), uint64_t{0}, UINT64_MAX, &args.seed);
      } else if (StartsWith(arg, "--threads=")) {
        Number("--threads", arg.substr(10), 0, 1024, &args.threads);
      } else if (StartsWith(arg, "--datasets=")) {
        args.datasets = Split(arg.substr(11), ',');
      } else if (StartsWith(arg, "--json-out=")) {
        args.json_out = arg.substr(11);
      } else if (auto obs_flag = obs::ParseObsFlag(arg, &args.obs);
                 !obs_flag.ok()) {
        std::fprintf(stderr, "%s\n", obs_flag.status().message().c_str());
        std::exit(2);
      } else if (*obs_flag) {
        // --log-level= / --trace-out= / --metrics-out= / --resources /
        // --metrics-flush-interval= / --metrics-format= / --profile-out= /
        // --profile-hz=
      } else if (arg == "--full") {
        args.scale = 1.0;
      } else if (arg == "--help") {
        std::printf(
            "flags: --scale=F --evals=N --seed=N --threads=N "
            "--datasets=a,b --full --json-out=F\n"
            "       --log-level=L --trace-out=F --metrics-out=F "
            "--metrics-format=F --metrics-flush-interval=S --resources\n"
            "       --profile-out=F --profile-hz=N\n");
        std::exit(0);
      }
    }
    if (!args.json_out.empty()) {
      BenchReport::Global().SetPath(args.json_out);
    }
    args.session = std::make_shared<obs::ObsSession>(args.obs);
    return args;
  }

  /// Reads `flag`'s value as one finite number in [lo, hi] into *out, or
  /// exits 2 naming the flag.
  template <typename T>
  static void Number(const char* flag, const std::string& value, T lo, T hi,
                     T* out) {
    auto number = ParseNumber(value, lo, hi);
    if (!number.ok()) {
      std::fprintf(stderr, "%s: %s\n", flag, number.status().message().c_str());
      std::exit(2);
    }
    *out = *number;
  }

  Parallelism parallelism() const { return Parallelism{threads}; }

  bool WantsDataset(const std::string& name) const {
    if (datasets.empty()) return true;
    for (const auto& d : datasets) {
      if (d == name) return true;
    }
    return false;
  }
};

/// Featurized train/test for one generated benchmark.
struct FeaturizedBenchmark {
  DatasetProfile profile;
  Dataset train;
  Dataset test;
  size_t num_features = 0;
};

inline FeaturizedBenchmark Featurize(const BenchmarkData& data,
                                     FeatureGenerator* generator,
                                     const Parallelism& parallelism = {}) {
  FeaturizedBenchmark out;
  out.profile = data.profile;
  generator->set_parallelism(parallelism);
  Status st = generator->Plan(data.train.left, data.train.right);
  if (!st.ok()) {
    AUTOEM_LOG(ERROR) << "feature plan failed: " << st.ToString();
    std::exit(1);
  }
  out.train = generator->Generate(data.train);
  out.test = generator->Generate(data.test);
  out.num_features = generator->num_features();
  return out;
}

inline BenchmarkData MustGenerate(const DatasetProfile& profile,
                                  uint64_t seed, double scale) {
  auto data = GenerateBenchmark(profile, seed, scale);
  if (!data.ok()) {
    AUTOEM_LOG(ERROR) << "generate " << profile.name
                      << " failed: " << data.status().ToString();
    std::exit(1);
  }
  return std::move(*data);
}

/// Records a fully-described case into the --json-out report.
inline void ReportBenchCase(BenchCase c) {
  BenchReport::Global().Add(std::move(c));
}

/// Starts a per-dataset case with the standard workload params
/// (dataset/scale/evals/seed/threads) filled in from the parsed args; the
/// bench adds its measured counters and calls ReportBenchCase.
inline BenchCase DatasetCase(const std::string& bench,
                             const std::string& dataset,
                             const BenchArgs& args) {
  BenchCase c;
  c.name = bench + "/" + dataset;
  c.params["dataset"] = dataset;
  c.params["scale"] = std::to_string(args.scale);
  c.params["evals"] = std::to_string(args.evals);
  c.params["seed"] = std::to_string(args.seed);
  c.params["threads"] = std::to_string(args.threads);
  return c;
}

/// Records one bench-level figure (an F1, a speedup, a wall-clock) twice:
/// as a gauge named `bench.<name>` so it lands in the --metrics-out
/// snapshot next to the library's own counters, and as a BenchCase (counter
/// key "value") in the standardized --json-out report.
inline void ReportBenchMetric(const std::string& name, double value) {
  obs::MetricsRegistry::Global().GetGauge("bench." + name)->Set(value);
  BenchCase c;
  c.name = name;
  c.counters["value"] = value;
  ReportBenchCase(std::move(c));
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace autoem

#endif  // AUTOEM_BENCH_BENCH_UTIL_H_
