#ifndef AUTOEM_OBS_PROFILER_H_
#define AUTOEM_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace autoem {
namespace obs {

/// In-process sampling CPU profiler (obs v3).
///
/// Answers the question spans and resource probes cannot: *which functions*
/// burn the cycles inside a trial. Each registered thread is sampled at
/// `hz` ticks of its own CPU clock (so idle threads cost nothing and sample
/// counts are proportional to CPU time, not wall time); every tick captures
/// the thread's call stack via backtrace() plus the innermost active
/// obs::Span, writing into a pre-allocated lock-free ring. Nothing in the
/// signal path allocates, locks, or formats — symbolization happens offline
/// when the profile is dumped.
///
/// Backends, chosen at StartProfiling:
///  * timer  (Linux) — one POSIX interval timer per registered thread,
///    created on that thread's CPU clock (pthread_getcpuclockid) and
///    delivered with SIGEV_THREAD_ID + SIGPROF, so each thread samples
///    itself in proportion to the CPU it consumes.
///  * watcher (portable fallback) — a background thread pthread_kill()s
///    SIGPROF to every registered thread each wall-clock interval. Samples
///    then approximate wall time per thread, not CPU time; still useful on
///    platforms without per-thread CPU timers.
///
/// Threads participate by registering: StartProfiling registers the calling
/// thread, and ThreadPool workers hold a ProfiledThreadScope for their
/// lifetime, so worker stacks (feature-gen chunks, tree fits) land in the
/// profile automatically. Unregistered threads (the metrics flusher, the
/// watcher itself) are never signalled.
///
/// Overhead when off: ProfilingEnabled() is one relaxed atomic load, and
/// that is the only cost a disabled profiler adds to a Span construction
/// (verified by bench_obs_overhead). Profiling is measurement-only: model
/// outputs are bit-identical with it on or off
/// (parallel_determinism_test runs one leg under the profiler).
struct ProfilerOptions {
  /// Samples per second of thread CPU time (timer backend) or wall time
  /// (watcher backend). Prime by default so sampling does not phase-lock
  /// with periodic work.
  double hz = 97.0;
  /// Ring capacity in samples, pre-allocated at StartProfiling. When the
  /// ring fills, further samples are dropped and counted exactly in
  /// ProfileDroppedSamples(). 64 Ki samples ≈ 11 CPU-minutes at 97 Hz.
  size_t max_samples = 1 << 16;
  /// Stack frames captured per sample.
  int max_depth = 64;
  /// Test hook / non-Linux default: force the watcher-thread backend even
  /// where per-thread CPU timers are available.
  bool force_watcher = false;
};

namespace internal {
extern std::atomic<bool> g_profiling;

/// Thread-local span stack maintained by obs::Span while profiling is
/// enabled; the signal handler reads the innermost entry for attribution.
/// Push/pop are a TLS array write plus a relaxed store — only paid while a
/// profile is being taken.
void PushProfilerSpan(const char* name);
void PopProfilerSpan();
/// Current depth of the calling thread's profiler span stack (test hook).
int ProfilerSpanDepth();

/// Deterministic collapse of symbolized stacks (exposed for tests): input
/// stacks are root-first frame name lists with a sample count; equal stacks
/// merge by summing counts and lines are emitted sorted, so the output is
/// a pure function of the multiset of inputs.
std::string CollapseSymbolizedStacks(
    const std::vector<std::pair<std::vector<std::string>, uint64_t>>& stacks);
}  // namespace internal

/// True while a profile is being captured.
inline bool ProfilingEnabled() {
  return internal::g_profiling.load(std::memory_order_relaxed);
}

/// Starts sampling. False (with a WARN log) when profiling is already
/// running or the platform has no supported backend; the process continues
/// unprofiled either way. The calling thread is registered automatically.
bool StartProfiling(const ProfilerOptions& options = {});

/// Stops sampling: disarms every timer (or the watcher), then folds the
/// run's totals into the metrics registry (`profile.samples`,
/// `profile.dropped_samples`, and per-span `profile.span_samples.<span>`
/// gauges). The captured buffer stays readable for CollapseProfile /
/// WriteProfile until the next StartProfiling. Safe to call when not
/// profiling (no-op). The SIGPROF handler stays installed but disarmed, so
/// a straggling in-flight signal is harmless.
void StopProfiling();

/// Joins the profiler's thread registry. Registration is cheap and
/// profiling-independent (a mutex + vector entry, once per thread);
/// registered threads get a sampling timer whenever a profile is running.
/// The thread pool registers every worker; other threads may opt in.
void RegisterProfiledThread();
void UnregisterProfiledThread();

/// RAII registration for worker threads.
class ProfiledThreadScope {
 public:
  ProfiledThreadScope() { RegisterProfiledThread(); }
  ~ProfiledThreadScope() { UnregisterProfiledThread(); }
  ProfiledThreadScope(const ProfiledThreadScope&) = delete;
  ProfiledThreadScope& operator=(const ProfiledThreadScope&) = delete;
};

/// Samples captured into the ring so far (monotonic within one profiling
/// run; reset by StartProfiling). Cheap enough to read per trial — the
/// evaluator records the per-trial delta as TrialTelemetry::profile_samples.
uint64_t ProfileSampleCount();
/// Samples dropped because the ring was full. Exact:
/// ProfileSampleCount() + ProfileDroppedSamples() == ticks handled.
uint64_t ProfileDroppedSamples();

/// One captured sample, decoded from the ring (test hook).
struct RawProfileSample {
  std::vector<uintptr_t> pcs;  // innermost first
  const char* span = nullptr;  // innermost active span, or nullptr
  uint32_t tid = 0;            // obs::LogThreadId() of the sampled thread
};
std::vector<RawProfileSample> SnapshotProfileSamples();

/// Per-span CPU attribution: samples whose innermost active span was
/// `span`, sorted by count descending then name. Samples taken outside any
/// span are reported as "(no span)".
struct SpanCpuShare {
  std::string span;
  uint64_t samples = 0;
};
std::vector<SpanCpuShare> ProfileSpanBreakdown();

/// Symbolizes and folds the captured buffer into collapsed-stack format —
/// one `span;outermost;...;leaf count` line per unique stack, sorted — the
/// input format of flamegraph.pl and speedscope, and of the flamegraph in
/// `autoem_cli report`. The innermost active span is the root frame, so the
/// flamegraph groups CPU by pipeline stage before call stack. Deterministic
/// for a given multiset of samples.
std::string CollapseProfile();

/// Writes CollapseProfile() to `path`; false on I/O failure.
bool WriteProfile(const std::string& path);

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_PROFILER_H_
