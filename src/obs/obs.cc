#include "obs/obs.h"

#include <atomic>

#include "common/string_util.h"
#include "io/atomic_file.h"
#include "obs/flusher.h"
#include "obs/profiler.h"

namespace autoem {
namespace obs {

namespace {

bool TakeFlagValue(const std::string& arg, const char* prefix,
                   std::string* out) {
  size_t len = std::char_traits<char>::length(prefix);
  if (arg.compare(0, len, prefix) != 0) return false;
  *out = arg.substr(len);
  return true;
}

// Reads `flag`'s value as one number in [lo, hi] into *out, or returns
// InvalidArgument naming the flag, as autoem_cli does.
Result<bool> TakeNumber(const char* flag, const std::string& value, double lo,
                        double hi, double* out) {
  auto number = ParseNumber(value, lo, hi);
  if (!number.ok()) {
    return Status::InvalidArgument(std::string(flag) + ": " +
                                   number.status().message());
  }
  *out = *number;
  return true;
}

// Set while any ObsSession owns a live MetricsFlusher: inner sessions must
// neither start a second flusher nor clobber the file it owns.
std::atomic<bool> g_flusher_active{false};

// Final (non-live) metrics write in the configured format. "json" keeps the
// original pretty-snapshot behavior; "jsonl" and "openmetrics" go through
// the same serializers the flusher uses so watchers and end-of-run readers
// see one format.
void WriteFinalMetrics(const std::string& path, const std::string& format) {
  bool ok;
  if (format == "openmetrics") {
    ok = io::AtomicWriteFile(path, MetricsRegistry::Global().SnapshotOpenMetrics(),
                             io::AtomicWriteOptions{/*durable=*/false})
             .ok();
  } else if (format == "jsonl") {
    std::string line = MetricsRegistry::Global().SnapshotJsonLine(0.0);
    line += '\n';
    ok = io::AtomicWriteFile(path, line,
                             io::AtomicWriteOptions{/*durable=*/false})
             .ok();
  } else {
    ok = MetricsRegistry::Global().WriteJson(path);
  }
  if (!ok) {
    AUTOEM_LOG(WARN) << "obs: failed to write metrics to " << path;
  }
}

}  // namespace

Result<bool> ParseObsFlag(const std::string& arg, ObsOptions* options) {
  if (arg == "--resources") {
    options->resources = true;
    return true;
  }
  std::string value;
  if (TakeFlagValue(arg, "--resources=", &value)) {
    options->resources =
        !(value == "0" || value == "false" || value == "off");
    return true;
  }
  // The ranges autoem_cli checks: durations below 1e9 s keep deadlines in
  // the clocks' 64-bit nanoseconds, and 1..10000 Hz keeps the profiler's
  // sampling period a positive time_t.
  if (TakeFlagValue(arg, "--metrics-flush-interval=", &value)) {
    return TakeNumber("--metrics-flush-interval", value, 0.0, 1e9,
                      &options->metrics_flush_interval);
  }
  if (TakeFlagValue(arg, "--profile-hz=", &value)) {
    return TakeNumber("--profile-hz", value, 1.0, 1e4, &options->profile_hz);
  }
  return TakeFlagValue(arg, "--log-level=", &options->log_level) ||
         TakeFlagValue(arg, "--trace-out=", &options->trace_path) ||
         TakeFlagValue(arg, "--metrics-out=", &options->metrics_path) ||
         TakeFlagValue(arg, "--metrics-format=", &options->metrics_format) ||
         TakeFlagValue(arg, "--profile-out=", &options->profile_path);
}

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  if (!options_.log_level.empty()) {
    LogLevel level;
    if (ParseLogLevel(options_.log_level, &level)) {
      SetMinLogLevel(level);
    } else {
      AUTOEM_LOG(WARN) << "obs: unknown log level '" << options_.log_level
                       << "' (ignored)";
    }
  }
  if (!options_.trace_path.empty() && !TracingEnabled()) {
    StartTracing();
    owns_tracing_ = true;
  }
  if (options_.resources && !ResourceProbesEnabled()) {
    SetResourceProbesEnabled(true);
    SetAllocationCounting(true);
    owns_probes_ = true;
  }
  if (!options_.profile_path.empty() && !ProfilingEnabled()) {
    ProfilerOptions popts;
    if (options_.profile_hz > 0) popts.hz = options_.profile_hz;
    owns_profiler_ = StartProfiling(popts);
  }
  if (!options_.metrics_path.empty() && options_.metrics_flush_interval > 0 &&
      !g_flusher_active.exchange(true, std::memory_order_acq_rel)) {
    MetricsFlusher::Options fopts;
    fopts.path = options_.metrics_path;
    fopts.interval_seconds = options_.metrics_flush_interval;
    if (!options_.metrics_format.empty()) {
      fopts.format = options_.metrics_format;
    }
    flusher_ = std::make_unique<MetricsFlusher>(std::move(fopts));
  }
}

ObsSession::~ObsSession() {
  // Profiler first: StopProfiling folds sample counts and per-span shares
  // into the metrics registry, so stopping before the flusher's final
  // snapshot (or WriteFinalMetrics below) lands them in the metrics file.
  if (owns_profiler_) {
    StopProfiling();
    if (!WriteProfile(options_.profile_path)) {
      AUTOEM_LOG(WARN) << "obs: failed to write profile to "
                       << options_.profile_path;
    }
  }
  if (owns_tracing_) {
    StopTracing();
    if (!WriteTrace(options_.trace_path)) {
      AUTOEM_LOG(WARN) << "obs: failed to write trace to "
                       << options_.trace_path;
    }
  }
  if (flusher_) {
    // The flusher destructor joins its thread and writes the final
    // end-of-run snapshot; no separate metrics write is needed.
    flusher_.reset();
    g_flusher_active.store(false, std::memory_order_release);
  } else if (!options_.metrics_path.empty() &&
             !g_flusher_active.load(std::memory_order_acquire)) {
    WriteFinalMetrics(options_.metrics_path, options_.metrics_format);
  }
  if (owns_probes_) {
    SetAllocationCounting(false);
    SetResourceProbesEnabled(false);
  }
}

}  // namespace obs
}  // namespace autoem
