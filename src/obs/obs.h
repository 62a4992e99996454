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

/// Observability knobs carried through the options structs
/// (AutoMlEmOptions::obs, ActiveLearningOptions::obs) and exposed as
/// `--log-level=`, `--trace-out=`, `--metrics-out=`, `--resources`,
/// `--metrics-flush-interval=`, `--metrics-format=` by autoem_cli and every
/// bench binary. All fields default to "off": empty strings mean no level
/// change, no tracing, no metrics dump, and zero measurable overhead.
struct ObsOptions {
  /// "trace"/"debug"/"info"/"warn"/"error"/"off"; empty = leave unchanged.
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
  /// When > 0 and metrics_path is set, a background MetricsFlusher rewrites
  /// the metrics file every this-many seconds (`--metrics-flush-interval=`).
  double metrics_flush_interval = 0.0;
  /// Serialization for the metrics file: "json" (default; pretty snapshot),
  /// "jsonl" (one snapshot line per flush, an append-only time series), or
  /// "openmetrics" (text exposition). (`--metrics-format=`)
  std::string metrics_format;
  /// Collapsed-stack CPU profile written here when non-empty
  /// (`--profile-out=`): the session runs the sampling profiler and dumps
  /// flamegraph.pl / speedscope / `autoem_cli report` compatible output.
  std::string profile_path;
  /// Sampling rate for the profiler in Hz (`--profile-hz=`, 1..10000); 0
  /// keeps the default (97 Hz).
  double profile_hz = 0.0;

  bool Any() const {
    return !log_level.empty() || !trace_path.empty() ||
           !metrics_path.empty() || resources ||
           metrics_flush_interval > 0.0 || !metrics_format.empty() ||
           !profile_path.empty();
  }
};

/// Parses one observability argument (`--log-level=X`, `--trace-out=P`,
/// `--metrics-out=P`, `--resources[=0|1]`, `--metrics-flush-interval=S`,
/// `--metrics-format=F`, `--profile-out=P`, `--profile-hz=N`) into
/// `*options`. Returns false (leaving options untouched) when `arg` is not
/// an observability flag, so callers can chain it into their existing flag
/// loops, and InvalidArgument naming the flag when a numeric value is not
/// one number in range (`--profile-hz=` 1..10000, `--metrics-flush-interval=`
/// 0..1e9, as autoem_cli checks them).
Result<bool> ParseObsFlag(const std::string& arg, ObsOptions* options);

/// Scoped activation of a set of ObsOptions:
///  * constructor: applies the log level; if no enclosing session is already
///    tracing, starts the tracer; if `resources` is set and no enclosing
///    session enabled probes, turns on ResourceProbes + allocation counting;
///    if a flush interval is set and no enclosing session is flushing,
///    starts a MetricsFlusher on `metrics_path`;
///  * destructor: tears each of those down in reverse (only the ones this
///    session started), writing the trace file and the final metrics
///    snapshot in the configured format.
///
/// Sessions nest safely — every library entry point (RunAutoMlEm,
/// RunAutoMlEmActive, EntityMatcher::Train) opens one from its options, and
/// a process-wide session opened in main() (what autoem_cli does) simply
/// owns the trace, probes, and flusher while the inner sessions become
/// no-ops. Metrics are cumulative, so when nested sessions share a metrics
/// path the outermost write is the complete one and it is the file's final
/// content; while a flusher is live it owns the file and inner sessions do
/// not write it.
class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  ObsOptions options_;
  bool owns_tracing_ = false;
  bool owns_probes_ = false;
  bool owns_profiler_ = false;
  std::unique_ptr<MetricsFlusher> flusher_;
};

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_OBS_H_
