#ifndef AUTOEM_OBS_CRITICAL_PATH_H_
#define AUTOEM_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace autoem {
namespace obs {

/// Critical-path and blame analysis over a span + flow trace (obs v4).
///
/// The span tracer says *what* ran and for how long; the flow events the
/// thread pool emits say *why* — which span enqueued which task, and how
/// long the task sat in the queue first. This module post-processes that
/// graph into the two artifacts a latency investigation actually needs:
///
///  * the **critical path** — the single causal chain of span segments
///    (including queue-wait gaps) that determined the run's wall clock.
///    Shortening anything on it shortens the run; shortening anything off
///    it cannot.
///  * the **blame table** — per span name: total time, and its exact
///    partition into self time (code in the span itself), child time
///    (covered by directly nested spans on the same thread), and wait time
///    (span-local wall time during which tasks this span submitted were
///    queued or running on other threads). self + child + wait == total for
///    every row by construction.
///
/// Consumed by `autoem_cli trace-analyze` (text + JSON) and embedded in the
/// `autoem_cli report` payload ("where the time went" section).

/// One span instance, placed in the causal graph.
struct SpanNode {
  std::string name;
  unsigned tid = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  int parent = -1;             // innermost enclosing span on the same tid
  std::vector<int> children;   // directly nested spans, start order
  /// Tasks this span enqueued: (enqueue timestamp, executing span index).
  std::vector<std::pair<uint64_t, int>> flow_targets;
  int flow_source = -1;        // span whose flow start bound this one
  uint64_t queue_us = 0;       // flow finish ts - flow start ts (flow targets)
  // Blame partition of [start_us, end_us]; self + child + wait == duration.
  uint64_t self_us = 0;
  uint64_t child_us = 0;
  uint64_t wait_us = 0;

  uint64_t dur_us() const { return end_us - start_us; }
};

/// Per-name aggregate of the blame partition, ranked by self + wait.
struct BlameRow {
  std::string name;
  uint64_t count = 0;
  uint64_t total_us = 0;
  uint64_t self_us = 0;
  uint64_t child_us = 0;
  uint64_t wait_us = 0;
  uint64_t queue_us = 0;  // queue delay suffered by instances of this name
};

/// One segment of the critical path, chronological.
struct CriticalSegment {
  enum Kind : uint8_t {
    kSelf = 0,   // the named span's own code was the bottleneck
    kQueue = 1,  // the named task sat in the thread-pool queue
  };
  std::string name;  // span name; "(untraced)" for gaps between top spans
  unsigned tid = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  Kind kind = kSelf;
};

struct TraceAnalysis {
  uint64_t trace_start_us = 0;  // earliest span start
  uint64_t wall_us = 0;         // latest span end - earliest span start
  size_t span_count = 0;
  size_t flow_count = 0;       // matched flow pairs bound to spans
  size_t flows_unmatched = 0;  // s without f, f without s, or unbound ends
  std::vector<SpanNode> spans;
  std::vector<CriticalSegment> critical_path;
  uint64_t critical_us = 0;  // summed segment lengths (== wall_us: the walk
                             // partitions the trace interval exactly)
  std::vector<BlameRow> blame;
  /// Queue delays of every matched flow, sorted ascending (percentile
  /// source for the report and the JSON export).
  std::vector<uint64_t> queue_delays_us;
};

/// Builds the causal graph from raw trace events (spans nested per thread
/// by containment, flows matched by id and bound to their innermost
/// enclosing spans), computes the blame partition, and walks the critical
/// path. InvalidArgument when the trace contains no complete spans.
Result<TraceAnalysis> AnalyzeTrace(const std::vector<TraceEvent>& events);

/// Parses Chrome trace_event JSON with obs::ParseJson and analyzes it.
/// Both Chrome layouts are accepted: the TraceJson / WriteTrace object
/// with a "traceEvents" array, and a bare array of events. Events are
/// objects with name/ph/tid/ts/dur/id; `tid` must lie in [0, 2^32-1] and
/// `ts`/`dur`/`id` in [0, 2^53] (fractions truncate; a string holding one
/// JSON number is accepted). Unknown keys and event phases are skipped;
/// InvalidArgument on malformed JSON, an out-of-range field, or a missing
/// event array.
Result<TraceAnalysis> AnalyzeTraceJson(const std::string& trace_json);

/// Human-readable "where the time went" rendering: wall clock, the ranked
/// blame table, queue-delay distribution, and the critical path aggregated
/// by span name.
std::string FormatAnalysisText(const TraceAnalysis& analysis);

/// Machine-readable export for `trace-analyze --json-out=` and the run
/// report payload: {wall_us, span_count, flow_count, flows_unmatched,
/// critical_us, coverage, critical_path:[...], blame:[...],
/// queue_delay_us:{count,total,max,p50,p95}}.
std::string AnalysisJson(const TraceAnalysis& analysis);

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_CRITICAL_PATH_H_
