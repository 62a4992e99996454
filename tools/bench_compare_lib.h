#ifndef AUTOEM_TOOLS_BENCH_COMPARE_LIB_H_
#define AUTOEM_TOOLS_BENCH_COMPARE_LIB_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace autoem {
namespace tools {

/// Noise-aware comparison of standardized bench artifacts (`--json-out=`
/// files in the `{"meta":{...},"cases":[{name,params,counters,seconds}]}`
/// schema) against checked-in baselines — the engine behind the
/// `bench_compare` binary and the CI perf-gate job.
///
/// Timing noise is handled twice: multiple run files for the same side are
/// merged by taking the per-case *minimum* seconds (the classic best-of-N
/// estimator — the min is the run least disturbed by the machine), and the
/// remaining ratio is judged against a symmetric `noise` band (default
/// ±8%). Cases faster than `min_seconds` are skipped outright: a 40 ns
/// guard bench can swing 2x on timer granularity alone and belongs to a
/// micro-bench, not a gate.

/// One case after min-merging: best observed seconds across runs.
struct BenchCaseStat {
  std::string name;
  double seconds = 0.0;  // min across runs; 0 = dimensionless figure
  int runs = 0;          // how many run files contributed
};

/// One parsed (and possibly merged) bench artifact.
struct BenchFile {
  std::map<std::string, std::string> meta;  // git_sha / cpu_model / threads
  std::map<std::string, BenchCaseStat> cases;
};

/// Parses one `--json-out` artifact (obs::ParseJson). Tolerant of the
/// google-benchmark tee cases and paper-figure cases alike: anything with a
/// "name" is a case; missing "seconds" reads as 0. Malformed JSON or a
/// "bench_compare.runs" counter beyond int range is InvalidArgument.
Result<BenchFile> ParseBenchJson(const std::string& text);

/// Loads and min-merges several run files into one BenchFile (meta is taken
/// from the first file; a per-case `runs` counts contributions).
Result<BenchFile> LoadBenchFiles(const std::vector<std::string>& paths);

/// Serializes a merged BenchFile back into the standard artifact schema, so
/// `--merge-out` baselines are readable by every BENCH_*.json consumer
/// (including this library). Adds a `"bench_compare.runs"` counter per case.
std::string SerializeBenchFile(const BenchFile& file);

enum class Verdict {
  kOk,        // within the noise band
  kImproved,  // faster than baseline beyond noise
  kRegressed, // slower than baseline beyond noise
  kSkipped,   // under min_seconds on either side — too fast to judge
  kMissingInCurrent,  // case in baseline but not in current (lost coverage)
  kNew,       // case in current but not in baseline (no verdict possible)
};

const char* VerdictName(Verdict verdict);

struct CaseComparison {
  std::string name;
  double baseline_s = 0.0;
  double current_s = 0.0;
  double ratio = 0.0;  // current/baseline; 0 when either side is absent
  Verdict verdict = Verdict::kOk;
};

struct CompareOptions {
  /// Symmetric relative noise band: |ratio - 1| <= noise is "ok".
  double noise = 0.08;
  /// Cases with seconds below this on either side are kSkipped.
  double min_seconds = 1e-6;
};

struct CompareReport {
  std::vector<CaseComparison> cases;  // sorted: worst ratio first
  int ok = 0, improved = 0, regressed = 0, skipped = 0;
  int missing_in_current = 0, added = 0;

  /// What `--check` gates on: a regression, or baseline coverage silently
  /// lost (a gated bench that stopped reporting must fail loudly too).
  bool Failed() const { return regressed > 0 || missing_in_current > 0; }
};

CompareReport CompareBench(const BenchFile& baseline, const BenchFile& current,
                           const CompareOptions& options);

/// Machine-readable verdict: `{"failed":bool,"summary":{...},"cases":[...]}`.
std::string CompareReportJson(const CompareReport& report);

/// Human-readable table for the terminal / CI log.
std::string CompareReportText(const CompareReport& report);

}  // namespace tools
}  // namespace autoem

#endif  // AUTOEM_TOOLS_BENCH_COMPARE_LIB_H_
