#ifndef AUTOEM_OBS_FLUSHER_H_
#define AUTOEM_OBS_FLUSHER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace autoem {
namespace obs {

/// The one writer of the metrics file (ObsSession hands it metrics_path).
/// Its destructor writes the end-of-run snapshot; with a positive interval
/// a background thread also rewrites the file every interval, so an
/// operator can watch a long search converge (`watch cat metrics.txt`, or
/// tail the JSONL series) instead of waiting for the end of the run.
///
/// Formats (ObsOptions::metrics_format / --metrics-format=):
///  * "jsonl"        one compact `{"ts_s":...}` snapshot line per flush,
///                   appended to an in-memory buffer whose full contents are
///                   rewritten each flush — the on-disk file is an
///                   append-only time series that is never torn;
///  * "openmetrics"  the latest snapshot in OpenMetrics text exposition.
///
/// Writes go through io::AtomicWriteFile with durability off: fsync-free
/// (a flush supersedes the last one anyway) but atomic-rename'd, so a
/// reader — or a crash — never observes a half-written file.
///
/// Shutdown handshake: the destructor signals the thread, the thread exits
/// its wait loop, the destructor joins it and then writes one final
/// snapshot itself. The final file therefore always contains a complete
/// end-of-run snapshot, never a torn or stale one. Without a thread that
/// final snapshot is the file's one line (jsonl) or its one exposition.
///
/// The flusher also exports its own health into the registry (and so into
/// every snapshot it writes): `obs.flush_count` (snapshots serialized),
/// `obs.flush_duration_ms` (histogram of serialize+write latency; trails by
/// one flush since a flush can't know its own duration), and
/// `obs.flush_final` (1 exactly when the shutdown handshake's final
/// snapshot ran). A wedged flusher is visible in its own output: the count
/// stalls, the histogram shows the fat tail, and a missing final counter
/// means the process died before teardown.
class MetricsFlusher {
 public:
  struct Options {
    std::string path;               // telemetry file (required)
    double interval_seconds = 1.0;  // <= 0: no thread; else >= 0.01
    std::string format = "jsonl";   // "jsonl" | "openmetrics"
  };

  explicit MetricsFlusher(Options options);
  ~MetricsFlusher();

  MetricsFlusher(const MetricsFlusher&) = delete;
  MetricsFlusher& operator=(const MetricsFlusher&) = delete;

  /// Serializes and writes a snapshot immediately on the calling thread
  /// (also the test hook). Thread-safe against the background thread.
  void FlushNow();

  /// Snapshots written so far (including the destructor's final one).
  uint64_t flush_count() const;

 private:
  void Loop();

  Options options_;
  uint64_t start_us_ = 0;
  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool shutdown_ = false;
  uint64_t flushes_ = 0;
  double last_flush_ms_ = -1.0;  // previous flush's latency; <0 = none yet
  std::string jsonl_lines_;  // accumulated series (jsonl format only)
  std::thread thread_;
};

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_FLUSHER_H_
