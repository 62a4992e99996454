#ifndef AUTOEM_OBS_OBS_H_
#define AUTOEM_OBS_OBS_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace autoem {
namespace obs {

class MetricsFlusher;

/// Observability knobs of the process's one ObsSession, exposed as
/// `--log-level=`, `--trace-out=`, `--metrics-out=`, `--resources`,
/// `--metrics-flush-interval=`, `--metrics-format=`, `--profile-out=` and
/// `--profile-hz=` by autoem_cli and every bench binary. All fields default
/// to "off": empty strings mean no level change, no tracing, no metrics
/// file, and zero measurable overhead.
struct ObsOptions {
  /// "trace"/"debug"/"info"/"warn"/"error"/"off"; any other value (empty
  /// included) leaves the level unchanged.
  std::string log_level;
  /// Chrome trace_event JSON written here when non-empty.
  std::string trace_path;
  /// Metrics written here when non-empty (end-of-run snapshot, plus live
  /// flushes when metrics_flush_interval > 0).
  std::string metrics_path;
  /// Enable per-trial/fold/iteration ResourceProbes and the allocation
  /// counting hook (`--resources`). Measurement only: outputs stay
  /// bit-identical with probes on or off.
  bool resources = false;
  /// When > 0 and metrics_path is set, the MetricsFlusher also rewrites the
  /// metrics file every this-many seconds while the run goes on
  /// (`--metrics-flush-interval=`).
  double metrics_flush_interval = 0.0;
  /// Serialization for the metrics file: "jsonl" (one `{"ts_s":...}`
  /// snapshot line per flush; without live flushes, the one end-of-run
  /// line) or "openmetrics" (text exposition). (`--metrics-format=`)
  std::string metrics_format = "jsonl";
  /// Collapsed-stack CPU profile written here when non-empty
  /// (`--profile-out=`): the session runs the sampling profiler and dumps
  /// flamegraph.pl / speedscope / `autoem_cli report` compatible output.
  std::string profile_path;
  /// Sampling rate for the profiler in Hz (`--profile-hz=`, 1..10000); 0
  /// keeps the default (97 Hz).
  double profile_hz = 0.0;
};

/// Parses one observability argument (`--log-level=X`, `--trace-out=P`,
/// `--metrics-out=P`, `--resources[=0|1]`, `--metrics-flush-interval=S`,
/// `--metrics-format=F`, `--profile-out=P`, `--profile-hz=N`) into
/// `*options`. Returns false (leaving options untouched) when `arg` is not
/// an observability flag, so callers can chain it into their existing flag
/// loops, and InvalidArgument naming the flag when its value is not valid:
/// a log level ParseLogLevel does not know, a format other than `jsonl` or
/// `openmetrics`, or a number that is not one number in range
/// (`--profile-hz=` 1..10000, `--metrics-flush-interval=` 0..1e9).
Result<bool> ParseObsFlag(const std::string& arg, ObsOptions* options);

/// The process's observability session, and the one writer of its
/// artifacts. main() (autoem_cli), BenchArgs::Parse or RunGBenchMain opens
/// it; the library never does. A caller that wants one library call
/// observed opens a session around that call.
///  * constructor: applies the log level; starts the tracer, the profiler
///    and the ResourceProbes (with allocation counting) as configured; hands
///    metrics_path to a MetricsFlusher, which flushes live only for a
///    positive metrics_flush_interval;
///  * destructor: stops each of those and writes the profile, the trace and
///    (through the flusher) the final metrics snapshot.
///
/// Opening a second session while one is live is a CHECK failure: its
/// StartTracing would clear the first session's trace buffer.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  ObsOptions options_;
  std::unique_ptr<MetricsFlusher> flusher_;
};

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_OBS_H_
