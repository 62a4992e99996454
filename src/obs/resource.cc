#include "obs/resource.h"

#include <cstdio>
#include <cstdlib>
#include <new>

#if !defined(_WIN32)
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#endif

namespace autoem {
namespace obs {

namespace internal {
std::atomic<bool> g_resource_probes{false};
}  // namespace internal

namespace {
// Constant-initialized so the operator-new hook below is safe to hit before
// (and after) any other static's lifetime.
std::atomic<bool> g_alloc_counting{false};
std::atomic<uint64_t> g_alloc_count{0};

inline void NoteAlloc() {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void SetResourceProbesEnabled(bool enabled) {
  internal::g_resource_probes.store(enabled, std::memory_order_relaxed);
}

void SetAllocationCounting(bool enabled) {
  g_alloc_counting.store(enabled, std::memory_order_relaxed);
}

bool AllocationCountingEnabled() {
  return g_alloc_counting.load(std::memory_order_relaxed);
}

uint64_t AllocationCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double ThreadCpuSeconds() {
#if defined(_WIN32)
  return 0.0;
#else
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
}

int64_t PeakRssKb() {
#if defined(_WIN32)
  return -1;
#else
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<int64_t>(usage.ru_maxrss);  // kilobytes on Linux
  }
  // /proc fallback: current (not peak) resident pages — still monotone
  // enough to expose which scope grew the footprint.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long pages_total = 0;
  long pages_resident = 0;
  int fields = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (fields != 2) return -1;
  long page_kb = 4;  // sysconf is allocation-free but keep the common case
  long sc = sysconf(_SC_PAGESIZE);
  if (sc > 0) page_kb = sc / 1024;
  return static_cast<int64_t>(pages_resident) * page_kb;
#endif
}

ResourceProbe::ResourceProbe(bool enabled) {
  if (!enabled) return;
  active_ = true;
  start_cpu_s_ = ThreadCpuSeconds();
  start_peak_rss_kb_ = PeakRssKb();
  start_allocs_ = AllocationCount();
}

ResourceUsage ResourceProbe::Take() const {
  ResourceUsage usage;
  if (!active_) return usage;
  usage.cpu_seconds = ThreadCpuSeconds() - start_cpu_s_;
  int64_t peak_now = PeakRssKb();
  if (peak_now >= 0 && start_peak_rss_kb_ >= 0 &&
      peak_now > start_peak_rss_kb_) {
    usage.peak_rss_delta_kb = peak_now - start_peak_rss_kb_;
  }
  usage.allocs = AllocationCount() - start_allocs_;
  return usage;
}

}  // namespace obs
}  // namespace autoem

// ---- opt-in allocation counting hook ---------------------------------------
// Replaces the global non-aligned new/delete with malloc/free plus one
// relaxed load (and, when counting is on, one relaxed add). The over-aligned
// overloads are intentionally left to the default implementation — those
// allocations simply go uncounted, which keeps the pairing rules trivially
// correct. Lives in this translation unit so any binary using obs resource
// accounting links the hook automatically.

void* operator new(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  autoem::obs::NoteAlloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) autoem::obs::NoteAlloc();
  return p;
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
