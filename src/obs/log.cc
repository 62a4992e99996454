#include "obs/log.h"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace autoem {
namespace obs {

namespace internal {
std::atomic<int> g_min_log_level{static_cast<int>(LogLevel::kWarn)};
}  // namespace internal

namespace {

// Serializes records so concurrent lines never interleave.
std::mutex& SinkMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

double ProcessSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::atomic<unsigned> g_next_thread_id{0};

}  // namespace

unsigned LogThreadId() {
  thread_local unsigned id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  for (LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (lower == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  // Common aliases.
  if (lower == "warning") {
    *out = LogLevel::kWarn;
    return true;
  }
  return false;
}

void SetMinLogLevel(LogLevel level) {
  internal::g_min_log_level.store(static_cast<int>(level),
                                  std::memory_order_relaxed);
}

LogLevel MinLogLevel() {
  return static_cast<LogLevel>(
      internal::g_min_log_level.load(std::memory_order_relaxed));
}

void LogLine(LogLevel level, const char* file, int line,
             const std::string& msg) {
  // Strip the directory part so records stay compact.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  double ts = ProcessSeconds();
  unsigned tid = LogThreadId();

  std::lock_guard<std::mutex> lock(SinkMutex());
  std::fprintf(stderr, "[%.3fs] [%s] [t%u] %s:%d: %s\n", ts,
               LogLevelName(level), tid, base, line, msg.c_str());
}

}  // namespace obs
}  // namespace autoem
