#ifndef AUTOEM_OBS_LOG_H_
#define AUTOEM_OBS_LOG_H_

#include <atomic>
#include <sstream>
#include <string>

namespace autoem {
namespace obs {

/// Leveled, thread-safe structured logging.
///
///   AUTOEM_LOG(INFO) << "trial " << t << " scored " << f1;
///
/// The stream arguments are only evaluated when the level is enabled — the
/// disabled path is one relaxed atomic load plus a branch, so leaving log
/// statements on hot-ish paths costs nothing in production runs.
///
/// Records go to stderr as human-readable lines:
///      [2.431s] [info] [t3] automl_em.cc:57: trial 4 scored 0.912
///
/// The default minimum level is `warn`, so library instrumentation is silent
/// unless a caller (e.g. `autoem_cli --log-level=info`) opts in; output and
/// results of existing binaries are unchanged.
enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Stable lower-case name, e.g. "info".
const char* LogLevelName(LogLevel level);

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off" (case-insensitive).
/// Returns false (and leaves *out untouched) for anything else.
bool ParseLogLevel(const std::string& text, LogLevel* out);

/// Runtime level control. Messages below the minimum are dropped before
/// their arguments are evaluated.
void SetMinLogLevel(LogLevel level);
LogLevel MinLogLevel();

/// Writes one record to stderr, bypassing the level filter (filtering is
/// the macro's job).
void LogLine(LogLevel level, const char* file, int line,
             const std::string& msg);

/// Small integer id for the calling thread (shared with the tracer, so log
/// records and trace spans correlate).
unsigned LogThreadId();

namespace internal {

extern std::atomic<int> g_min_log_level;

// Severity-token mapping for AUTOEM_LOG(INFO)-style spelling.
inline constexpr LogLevel kLogSeverity_TRACE = LogLevel::kTrace;
inline constexpr LogLevel kLogSeverity_DEBUG = LogLevel::kDebug;
inline constexpr LogLevel kLogSeverity_INFO = LogLevel::kInfo;
inline constexpr LogLevel kLogSeverity_WARN = LogLevel::kWarn;
inline constexpr LogLevel kLogSeverity_ERROR = LogLevel::kError;

/// Collects one message's stream arguments; the destructor hands the
/// finished line to LogLine.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { LogLine(level_, file_, line_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Swallows the stream expression so the disabled branch of AUTOEM_LOG has
/// type void in both arms of the conditional.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal

inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         internal::g_min_log_level.load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace autoem

#define AUTOEM_LOG(severity)                                                \
  !::autoem::obs::LogEnabled(                                               \
      ::autoem::obs::internal::kLogSeverity_##severity)                     \
      ? (void)0                                                             \
      : ::autoem::obs::internal::LogVoidify() &                             \
            ::autoem::obs::internal::LogMessage(                            \
                ::autoem::obs::internal::kLogSeverity_##severity, __FILE__, \
                __LINE__)                                                   \
                .stream()

#endif  // AUTOEM_OBS_LOG_H_
