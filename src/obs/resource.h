#ifndef AUTOEM_OBS_RESOURCE_H_
#define AUTOEM_OBS_RESOURCE_H_

#include <atomic>
#include <cstdint>

namespace autoem {
namespace obs {

/// Per-scope resource accounting (obs v2).
///
/// A ResourceProbe is the resource-side sibling of a trace Span: an RAII
/// sampler that captures how much thread CPU time, peak RSS, and heap
/// allocation a scope consumed. Probes are attached to every search
/// trial, CV fold, and active-learning iteration so a run can answer the
/// question the tuning-budget experiments hinge on: *where* the time and
/// memory actually went.
///
/// Probes are off by default. A disabled probe is one relaxed atomic load
/// plus a branch (~1 ns, proven by bench_obs_overhead) — cheap enough to
/// construct unconditionally on hot-ish paths. Enabled, a probe costs one
/// clock_gettime + one getrusage call at each end of the scope; that is
/// noise at trial/fold granularity and is why probes never attach per row.
///
/// Resource numbers are *measurements*, not results: they flow into trial
/// telemetry, trajectory CSVs and span args but never into any model
/// computation or checkpoint, so enabling probes cannot change a single
/// output bit (parallel_determinism_test runs with probes on).

/// What one probe measured. All deltas are scope-relative; a disabled
/// probe reads zero everywhere.
struct ResourceUsage {
  /// CPU seconds consumed by the *calling thread* between construction and
  /// Take() (CLOCK_THREAD_CPUTIME_ID). Work done on pool workers inside the
  /// scope shows up in the thread-pool busy counters instead.
  double cpu_seconds = 0.0;
  /// Growth of the process peak RSS (getrusage ru_maxrss) across the scope,
  /// in kilobytes. Zero once the process high-water mark stops moving —
  /// a nonzero value pins *which trial* pushed the peak.
  int64_t peak_rss_delta_kb = 0;
  /// operator-new calls across the scope (process-wide), when allocation
  /// counting is enabled; see SetAllocationCounting. Trials run one at a
  /// time on the search thread, so the process-wide delta attributes
  /// cleanly per trial.
  uint64_t allocs = 0;
};

namespace internal {
extern std::atomic<bool> g_resource_probes;
}  // namespace internal

/// Global probe switch (ObsOptions::resources / --resources). Also used by
/// the thread pool to gate its per-task timing.
inline bool ResourceProbesEnabled() {
  return internal::g_resource_probes.load(std::memory_order_relaxed);
}
void SetResourceProbesEnabled(bool enabled);

/// Opt-in allocation counting hook: when enabled, every global operator new
/// bumps a process-wide relaxed counter that probes read as a delta. When
/// disabled (the default) the hook is one relaxed load per allocation.
void SetAllocationCounting(bool enabled);
bool AllocationCountingEnabled();
/// Cumulative operator-new calls observed while counting was enabled.
uint64_t AllocationCount();

/// Raw samplers (exposed for tests and the thread-pool gauges).
/// CPU seconds consumed by the calling thread; 0.0 where unsupported.
double ThreadCpuSeconds();
/// Process peak RSS in kilobytes (getrusage, /proc fallback); -1 unknown.
int64_t PeakRssKb();

/// RAII sampler. Construct at scope entry, Take() at exit (or let the
/// destructor discard the measurement if nobody asked).
class ResourceProbe {
 public:
  ResourceProbe() : ResourceProbe(ResourceProbesEnabled()) {}
  explicit ResourceProbe(bool enabled);

  ResourceProbe(const ResourceProbe&) = delete;
  ResourceProbe& operator=(const ResourceProbe&) = delete;

  bool active() const { return active_; }

  /// Deltas since construction; all zero on a disabled probe, so check
  /// active() to tell "free" from "not measured".
  ResourceUsage Take() const;

 private:
  bool active_ = false;
  double start_cpu_s_ = 0.0;
  int64_t start_peak_rss_kb_ = 0;
  uint64_t start_allocs_ = 0;
};

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_RESOURCE_H_
