#include "obs/flusher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "io/atomic_file.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace autoem {
namespace obs {

MetricsFlusher::MetricsFlusher(Options options)
    : options_(std::move(options)), start_us_(internal::NowMicros()) {
  if (options_.interval_seconds > 0.0) {
    options_.interval_seconds = std::max(options_.interval_seconds, 0.01);
    thread_ = std::thread([this] { Loop(); });
  }
}

MetricsFlusher::~MetricsFlusher() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  // Final snapshot, written after the thread is gone: the file ends with a
  // complete end-of-run record no matter where the flush cadence stood.
  // The counter bumps *before* serializing so the final snapshot reports
  // itself — `obs.flush_final == 1` in the file proves the shutdown
  // handshake completed rather than the flusher dying mid-run.
  MetricsRegistry::Global().GetCounter("obs.flush_final")->Add(1);
  FlushNow();
}

void MetricsFlusher::FlushNow() {
  uint64_t flush_start_us = internal::NowMicros();
  double ts_s = static_cast<double>(flush_start_us - start_us_) * 1e-6;
  std::string payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Flush health is exported through the very snapshot being taken: a
    // wedged or slow flusher shows up in its own output (stalled
    // `obs.flush_count`, fat `obs.flush_duration_ms` tail) with no side
    // channel needed. The duration observed is the *previous* flush's —
    // this one's isn't known until its write returns — so the histogram
    // trails the count by one, which the first flush reports as count 0.
    MetricsRegistry::Global().GetCounter("obs.flush_count")->Add(1);
    if (last_flush_ms_ >= 0.0) {
      MetricsRegistry::Global()
          .GetHistogram("obs.flush_duration_ms")
          ->Observe(last_flush_ms_);
    }
    if (options_.format == "openmetrics") {
      payload = MetricsRegistry::Global().SnapshotOpenMetrics();
    } else {
      jsonl_lines_ += MetricsRegistry::Global().SnapshotJsonLine(ts_s);
      jsonl_lines_ += '\n';
      payload = jsonl_lines_;
    }
    ++flushes_;
  }
  Status st = io::AtomicWriteFile(options_.path, payload,
                                  io::AtomicWriteOptions{/*durable=*/false});
  if (!st.ok()) {
    AUTOEM_LOG(WARN) << "flusher: write to " << options_.path
                     << " failed: " << st.ToString();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_flush_ms_ =
        static_cast<double>(internal::NowMicros() - flush_start_us) * 1e-3;
  }
}

uint64_t MetricsFlusher::flush_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushes_;
}

void MetricsFlusher::Loop() {
  SetCurrentThreadName("flusher");
  std::chrono::duration<double> interval(options_.interval_seconds);
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    if (wake_.wait_for(lock, interval, [this] { return shutdown_; })) {
      return;  // destructor writes the final snapshot after the join
    }
    lock.unlock();
    FlushNow();
    lock.lock();
  }
}

}  // namespace obs
}  // namespace autoem
