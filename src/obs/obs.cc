#include "obs/obs.h"

#include <atomic>

#include "common/logging.h"
#include "common/string_util.h"
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

// Set while an ObsSession is live: there is at most one per process.
std::atomic<bool> g_session_live{false};

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
  if (TakeFlagValue(arg, "--log-level=", &value)) {
    LogLevel level{};
    if (!ParseLogLevel(value, &level)) {
      return Status::InvalidArgument(
          "--log-level: '" + value +
          "' is not one of trace, debug, info, warn, error, off");
    }
    options->log_level = value;
    return true;
  }
  if (TakeFlagValue(arg, "--metrics-format=", &value)) {
    if (value != "jsonl" && value != "openmetrics") {
      return Status::InvalidArgument("--metrics-format: '" + value +
                                     "' is not jsonl or openmetrics");
    }
    options->metrics_format = value;
    return true;
  }
  return TakeFlagValue(arg, "--trace-out=", &options->trace_path) ||
         TakeFlagValue(arg, "--metrics-out=", &options->metrics_path) ||
         TakeFlagValue(arg, "--profile-out=", &options->profile_path);
}

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  AUTOEM_CHECK_MSG(!g_session_live.exchange(true, std::memory_order_acq_rel),
                   "an ObsSession is already live; open one per process");
  LogLevel level{};
  if (ParseLogLevel(options_.log_level, &level)) SetMinLogLevel(level);
  if (!options_.trace_path.empty()) StartTracing();
  if (options_.resources) {
    SetResourceProbesEnabled(true);
    SetAllocationCounting(true);
  }
  if (!options_.profile_path.empty()) {
    ProfilerOptions popts;
    if (options_.profile_hz > 0) popts.hz = options_.profile_hz;
    StartProfiling(popts);
  }
  if (!options_.metrics_path.empty()) {
    flusher_ = std::make_unique<MetricsFlusher>(MetricsFlusher::Options{
        .path = options_.metrics_path,
        .interval_seconds = options_.metrics_flush_interval,
        .format = options_.metrics_format});
  }
}

ObsSession::~ObsSession() {
  // Profiler first: StopProfiling folds sample counts and per-span shares
  // into the metrics registry, so stopping before the flusher's final
  // snapshot lands them in the metrics file.
  if (!options_.profile_path.empty()) {
    StopProfiling();
    if (!WriteProfile(options_.profile_path)) {
      AUTOEM_LOG(WARN) << "obs: failed to write profile to "
                       << options_.profile_path;
    }
  }
  if (!options_.trace_path.empty()) {
    StopTracing();
    if (!WriteTrace(options_.trace_path)) {
      AUTOEM_LOG(WARN) << "obs: failed to write trace to "
                       << options_.trace_path;
    }
  }
  // The flusher's destructor joins its thread, if it has one, and writes
  // the end-of-run snapshot.
  flusher_.reset();
  if (options_.resources) {
    SetAllocationCounting(false);
    SetResourceProbesEnabled(false);
  }
  g_session_live.store(false, std::memory_order_release);
}

}  // namespace obs
}  // namespace autoem
