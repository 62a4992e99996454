#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "obs/json.h"

namespace autoem {
namespace obs {

namespace {

// ---------------------------------------------------------------------------
// Interval helpers. All intervals are half-open [start, end) in microseconds.

struct Interval {
  uint64_t start;
  uint64_t end;
};

// Total covered length of the union of `ivs` (sorted in place).
uint64_t UnionLength(std::vector<Interval>& ivs) {
  if (ivs.empty()) return 0;
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  });
  uint64_t total = 0;
  uint64_t cur_start = ivs[0].start;
  uint64_t cur_end = ivs[0].end;
  for (size_t i = 1; i < ivs.size(); ++i) {
    if (ivs[i].start > cur_end) {
      total += cur_end - cur_start;
      cur_start = ivs[i].start;
      cur_end = ivs[i].end;
    } else {
      cur_end = std::max(cur_end, ivs[i].end);
    }
  }
  total += cur_end - cur_start;
  return total;
}

// ---------------------------------------------------------------------------
// Graph construction: nest spans per thread, match flows, bind to spans.

struct FlowEnd {
  uint64_t ts = 0;
  unsigned tid = 0;
  bool present = false;
};

struct FlowPair {
  FlowEnd s;
  FlowEnd f;
};

// Innermost span on `tid` whose [start, end] interval contains `ts`.
// Sibling spans on one thread never overlap (they come from a strict RAII
// scope stack), so a binary search over the sorted root/child lists walks
// straight down the containment tree.
int FindEnclosingSpan(const std::vector<SpanNode>& spans,
                      const std::map<unsigned, std::vector<int>>& roots_by_tid,
                      unsigned tid, uint64_t ts) {
  auto it = roots_by_tid.find(tid);
  if (it == roots_by_tid.end()) return -1;
  const std::vector<int>* level = &it->second;
  int found = -1;
  while (!level->empty()) {
    // Last span at this level starting at or before ts.
    auto pos = std::upper_bound(
        level->begin(), level->end(), ts,
        [&spans](uint64_t t, int idx) { return t < spans[idx].start_us; });
    if (pos == level->begin()) break;
    int idx = *(pos - 1);
    if (ts > spans[idx].end_us) break;
    found = idx;
    level = &spans[idx].children;
  }
  return found;
}

// ---------------------------------------------------------------------------
// Critical-path walk.

constexpr int kVirtualRoot = -1;

struct Dep {
  uint64_t start;  // child start, or flow enqueue timestamp
  uint64_t end;    // child end, or flow target span end
  int span;        // span index the dependency resolves to
  bool is_flow;
};

class CriticalPathWalker {
 public:
  CriticalPathWalker(const std::vector<SpanNode>& spans,
                     const std::vector<int>& top_level)
      : spans_(spans), visited_(spans.size(), false) {
    // The virtual root's dependencies are every span not reachable through
    // nesting or a matched flow — the top-level "timeline" of the run.
    for (int idx : top_level) {
      root_deps_.push_back(Dep{spans_[idx].start_us, spans_[idx].end_us, idx,
                               /*is_flow=*/false});
    }
    SortDeps(&root_deps_);
  }

  std::vector<CriticalSegment> Walk(uint64_t lo, uint64_t hi) {
    Attribute(kVirtualRoot, lo, hi);
    std::reverse(segments_.begin(), segments_.end());
    Coalesce();
    return std::move(segments_);
  }

 private:
  static void SortDeps(std::vector<Dep>* deps) {
    // Latest-ending first: the walk moves backward through time, always
    // chasing whichever dependency was the last to finish.
    std::sort(deps->begin(), deps->end(),
              [](const Dep& a, const Dep& b) { return a.end > b.end; });
  }

  std::vector<Dep> DepsOf(int idx) {
    if (idx == kVirtualRoot) return root_deps_;
    const SpanNode& node = spans_[idx];
    std::vector<Dep> deps;
    deps.reserve(node.children.size() + node.flow_targets.size());
    for (int child : node.children) {
      deps.push_back(
          Dep{spans_[child].start_us, spans_[child].end_us, child, false});
    }
    for (const auto& [enqueue_ts, target] : node.flow_targets) {
      deps.push_back(Dep{enqueue_ts, spans_[target].end_us, target, true});
    }
    SortDeps(&deps);
    return deps;
  }

  void EmitSelf(int idx, uint64_t start, uint64_t end) {
    if (end <= start) return;
    CriticalSegment seg;
    if (idx == kVirtualRoot) {
      seg.name = "(untraced)";
      seg.tid = 0;
    } else {
      seg.name = spans_[idx].name;
      seg.tid = spans_[idx].tid;
    }
    seg.start_us = start;
    seg.end_us = end;
    seg.kind = CriticalSegment::kSelf;
    segments_.push_back(seg);
  }

  void EmitQueue(int target, uint64_t start, uint64_t end) {
    if (end <= start) return;
    CriticalSegment seg;
    seg.name = spans_[target].name;
    seg.tid = spans_[target].tid;
    seg.start_us = start;
    seg.end_us = end;
    seg.kind = CriticalSegment::kQueue;
    segments_.push_back(seg);
  }

  // Partitions [lo, hi] — a slice of `idx`'s lifetime — into critical
  // segments, walking backward: the last-finishing dependency owns the time
  // up to its end; the gap above it is the span's own (self) time.
  void Attribute(int idx, uint64_t lo, uint64_t hi) {
    uint64_t t = hi;
    if (t <= lo) return;
    for (const Dep& dep : DepsOf(idx)) {
      if (t <= lo) break;
      uint64_t dep_start = std::max(dep.start, lo);
      uint64_t dep_end = std::min(dep.end, t);
      if (dep_end <= dep_start) continue;
      // A malformed trace (flow into an ancestor) could loop; each span is
      // attributed through at most once.
      if (visited_[dep.span]) continue;
      visited_[dep.span] = true;
      // The stretch between this dependency's end and the current boundary
      // had no later-finishing dependency: the span itself was running.
      EmitSelf(idx, dep_end, t);
      if (dep.is_flow) {
        uint64_t exec_start =
            std::max(spans_[dep.span].start_us, dep_start);
        if (dep_end > exec_start) {
          Attribute(dep.span, exec_start, dep_end);
          EmitQueue(dep.span, dep_start, exec_start);
        } else {
          // Window closed before the task started executing: pure queue wait.
          EmitQueue(dep.span, dep_start, dep_end);
        }
      } else {
        Attribute(dep.span, dep_start, dep_end);
      }
      t = dep_start;
    }
    EmitSelf(idx, lo, t);
  }

  void Coalesce() {
    std::vector<CriticalSegment> merged;
    for (CriticalSegment& seg : segments_) {
      if (!merged.empty() && merged.back().end_us == seg.start_us &&
          merged.back().kind == seg.kind && merged.back().tid == seg.tid &&
          merged.back().name == seg.name) {
        merged.back().end_us = seg.end_us;
      } else {
        merged.push_back(std::move(seg));
      }
    }
    segments_ = std::move(merged);
  }

  const std::vector<SpanNode>& spans_;
  std::vector<bool> visited_;
  std::vector<Dep> root_deps_;
  std::vector<CriticalSegment> segments_;
};

// ---------------------------------------------------------------------------
// Trace JSON helpers.

// A numeric event field as an integer in [0, max]; fractional values
// truncate. Some producers write flow ids as strings: accepted when the
// string holds exactly one JSON number.
Status ReadEventInt(const JsonValue& value, const std::string& field,
                    double max, uint64_t* out) {
  double number = -1;
  if (value.is_number()) {
    number = value.number;
  } else if (value.is_string()) {
    auto inner = ParseJson(value.string);
    if (inner.ok() && inner->is_number()) number = inner->number;
  }
  if (!(number >= 0 && number <= max)) {
    return Status::InvalidArgument("trace: bad numeric field '" + field + "'");
  }
  *out = static_cast<uint64_t>(number);
  return Status::OK();
}

std::string FormatUs(uint64_t us) {
  char buf[32];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(us) / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(us));
  }
  return buf;
}

std::string FormatPct(uint64_t part, uint64_t whole) {
  char buf[16];
  double pct = whole == 0 ? 0.0
                          : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
  std::snprintf(buf, sizeof(buf), "%5.1f%%", pct);
  return buf;
}

uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank + 0.5)];
}

}  // namespace

Result<TraceAnalysis> AnalyzeTrace(const std::vector<TraceEvent>& events) {
  TraceAnalysis out;

  // --- Collect spans and flow ends. -------------------------------------
  std::map<uint64_t, FlowPair> flows;
  std::vector<size_t> span_events;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.ph == 'X') {
      span_events.push_back(i);
    } else if (e.ph == 's' || e.ph == 'f') {
      FlowPair& pair = flows[e.flow_id];
      FlowEnd& end = (e.ph == 's') ? pair.s : pair.f;
      if (end.present) {
        // Duplicate end for the same id: keep the first, count the extra.
        ++out.flows_unmatched;
        continue;
      }
      end.present = true;
      end.ts = e.ts_us;
      end.tid = e.tid;
    }
  }
  if (span_events.empty()) {
    return Status::InvalidArgument("trace has no complete ('X') spans");
  }

  out.spans.reserve(span_events.size());
  for (size_t idx : span_events) {
    const TraceEvent& e = events[idx];
    SpanNode node;
    node.name = e.label();
    node.tid = e.tid;
    node.start_us = e.ts_us;
    node.end_us = e.ts_us + e.dur_us;
    out.spans.push_back(std::move(node));
  }
  out.span_count = out.spans.size();

  // --- Nest per thread by containment. ----------------------------------
  // Sort (start asc, end desc) so an enclosing span precedes everything it
  // contains; a stack then yields parent links in one pass.
  std::map<unsigned, std::vector<int>> order_by_tid;
  for (size_t i = 0; i < out.spans.size(); ++i) {
    order_by_tid[out.spans[i].tid].push_back(static_cast<int>(i));
  }
  std::map<unsigned, std::vector<int>> roots_by_tid;
  for (auto& [tid, order] : order_by_tid) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const SpanNode& sa = out.spans[a];
      const SpanNode& sb = out.spans[b];
      if (sa.start_us != sb.start_us) return sa.start_us < sb.start_us;
      return sa.end_us > sb.end_us;
    });
    std::vector<int> stack;
    std::vector<int>& roots = roots_by_tid[tid];
    for (int idx : order) {
      const SpanNode& node = out.spans[idx];
      while (!stack.empty() &&
             !(out.spans[stack.back()].start_us <= node.start_us &&
               node.end_us <= out.spans[stack.back()].end_us)) {
        stack.pop_back();
      }
      if (stack.empty()) {
        roots.push_back(idx);
      } else {
        out.spans[idx].parent = stack.back();
        out.spans[stack.back()].children.push_back(idx);
      }
      stack.push_back(idx);
    }
  }

  // --- Bind matched flows to their enclosing spans. ---------------------
  for (auto& [id, pair] : flows) {
    (void)id;
    if (!pair.s.present || !pair.f.present) {
      ++out.flows_unmatched;
      continue;
    }
    int src = FindEnclosingSpan(out.spans, roots_by_tid, pair.s.tid, pair.s.ts);
    int dst = FindEnclosingSpan(out.spans, roots_by_tid, pair.f.tid, pair.f.ts);
    if (src < 0 || dst < 0 || src == dst) {
      ++out.flows_unmatched;
      continue;
    }
    uint64_t queue_us = pair.f.ts > pair.s.ts ? pair.f.ts - pair.s.ts : 0;
    out.spans[src].flow_targets.emplace_back(pair.s.ts, dst);
    if (out.spans[dst].flow_source < 0) out.spans[dst].flow_source = src;
    out.spans[dst].queue_us += queue_us;
    out.queue_delays_us.push_back(queue_us);
    ++out.flow_count;
  }
  std::sort(out.queue_delays_us.begin(), out.queue_delays_us.end());

  // --- Blame partition: self + child + wait == dur, exactly. ------------
  for (SpanNode& node : out.spans) {
    std::vector<Interval> child_ivs;
    child_ivs.reserve(node.children.size());
    for (int child : node.children) {
      child_ivs.push_back(
          Interval{out.spans[child].start_us, out.spans[child].end_us});
    }
    node.child_us = UnionLength(child_ivs);
    // Wait = portion of the span covered by its submitted tasks' lifetimes
    // (enqueue → task end, clipped to the span) but NOT by nested children.
    std::vector<Interval> all_ivs = child_ivs;
    for (const auto& [enqueue_ts, target] : node.flow_targets) {
      uint64_t lo = std::max(enqueue_ts, node.start_us);
      uint64_t hi = std::min(out.spans[target].end_us, node.end_us);
      if (hi > lo) all_ivs.push_back(Interval{lo, hi});
    }
    uint64_t covered = UnionLength(all_ivs);
    covered = std::min(covered, node.dur_us());
    node.child_us = std::min(node.child_us, covered);
    node.wait_us = covered - node.child_us;
    node.self_us = node.dur_us() - covered;
  }

  // --- Aggregate the blame table by span name. --------------------------
  std::unordered_map<std::string, BlameRow> by_name;
  for (const SpanNode& node : out.spans) {
    BlameRow& row = by_name[node.name];
    row.name = node.name;
    row.count += 1;
    row.total_us += node.dur_us();
    row.self_us += node.self_us;
    row.child_us += node.child_us;
    row.wait_us += node.wait_us;
    row.queue_us += node.queue_us;
  }
  out.blame.reserve(by_name.size());
  for (auto& [name, row] : by_name) {
    (void)name;
    out.blame.push_back(std::move(row));
  }
  std::sort(out.blame.begin(), out.blame.end(),
            [](const BlameRow& a, const BlameRow& b) {
              uint64_t ka = a.self_us + a.wait_us;
              uint64_t kb = b.self_us + b.wait_us;
              if (ka != kb) return ka > kb;
              return a.name < b.name;
            });

  // --- Critical path. ---------------------------------------------------
  uint64_t t_min = UINT64_MAX;
  uint64_t t_max = 0;
  for (const SpanNode& node : out.spans) {
    t_min = std::min(t_min, node.start_us);
    t_max = std::max(t_max, node.end_us);
  }
  out.trace_start_us = t_min;
  out.wall_us = t_max - t_min;

  // Top level = spans with no enclosing span and no incoming flow; flow
  // targets are reached through their submitter instead.
  std::vector<int> top_level;
  for (size_t i = 0; i < out.spans.size(); ++i) {
    if (out.spans[i].parent < 0 && out.spans[i].flow_source < 0) {
      top_level.push_back(static_cast<int>(i));
    }
  }
  CriticalPathWalker walker(out.spans, top_level);
  out.critical_path = walker.Walk(t_min, t_max);
  out.critical_us = 0;
  for (const CriticalSegment& seg : out.critical_path) {
    out.critical_us += seg.end_us - seg.start_us;
  }
  return out;
}

Result<TraceAnalysis> AnalyzeTraceJson(const std::string& trace_json) {
  auto doc = ParseJson(trace_json);
  if (!doc.ok()) {
    return Status::InvalidArgument("trace: " + doc.status().message());
  }
  const JsonValue* events_json = &*doc;
  if (doc->is_object()) {
    events_json = doc->Find("traceEvents");
    if (events_json == nullptr) {
      return Status::InvalidArgument("trace: no traceEvents array");
    }
  }
  if (!events_json->is_array()) {
    return Status::InvalidArgument(
        "trace: expected a traceEvents array or an event array");
  }
  // ts and dur are at most 2^53 (exact in a double), so ts + dur cannot
  // overflow.
  constexpr double kMaxTid = 4294967295.0;
  constexpr double kMaxTime = 9007199254740992.0;
  std::vector<TraceEvent> events;
  for (const JsonValue& entry : events_json->array) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("trace: event must be an object");
    }
    TraceEvent event;
    event.name = nullptr;
    event.ph = '\0';
    event.tid = 0;
    event.ts_us = 0;
    for (const auto& [field, value] : entry.object) {
      if (field == "name") {
        if (!value.is_string()) {
          return Status::InvalidArgument("trace: bad event name");
        }
        event.owned_name = value.string;
      } else if (field == "ph") {
        if (!value.is_string() || value.string.empty()) {
          return Status::InvalidArgument("trace: bad event ph");
        }
        event.ph = value.string[0];
      } else if (field == "tid") {
        uint64_t tid = 0;
        AUTOEM_RETURN_IF_ERROR(ReadEventInt(value, field, kMaxTid, &tid));
        event.tid = static_cast<unsigned>(tid);
      } else if (field == "ts") {
        AUTOEM_RETURN_IF_ERROR(
            ReadEventInt(value, field, kMaxTime, &event.ts_us));
      } else if (field == "dur") {
        AUTOEM_RETURN_IF_ERROR(
            ReadEventInt(value, field, kMaxTime, &event.dur_us));
      } else if (field == "id") {
        AUTOEM_RETURN_IF_ERROR(
            ReadEventInt(value, field, kMaxTime, &event.flow_id));
      }
    }
    if (event.ph == 'X' || event.ph == 's' || event.ph == 'f') {
      events.push_back(std::move(event));
    }
  }
  return AnalyzeTrace(events);
}

std::string FormatAnalysisText(const TraceAnalysis& analysis) {
  std::string out;
  char line[256];

  std::snprintf(line, sizeof(line),
                "=== where the time went ===\n"
                "wall time      %s  (%zu spans, %zu flows",
                FormatUs(analysis.wall_us).c_str(), analysis.span_count,
                analysis.flow_count);
  out += line;
  if (analysis.flows_unmatched > 0) {
    std::snprintf(line, sizeof(line), ", %zu unmatched",
                  analysis.flows_unmatched);
    out += line;
  }
  out += ")\n";

  if (!analysis.queue_delays_us.empty()) {
    uint64_t total = std::accumulate(analysis.queue_delays_us.begin(),
                                     analysis.queue_delays_us.end(),
                                     static_cast<uint64_t>(0));
    std::snprintf(
        line, sizeof(line),
        "queue delay    %zu tasks, total %s, p50 %s, p95 %s, max %s\n",
        analysis.queue_delays_us.size(), FormatUs(total).c_str(),
        FormatUs(Percentile(analysis.queue_delays_us, 0.50)).c_str(),
        FormatUs(Percentile(analysis.queue_delays_us, 0.95)).c_str(),
        FormatUs(analysis.queue_delays_us.back()).c_str());
    out += line;
  }

  out += "\n--- blame (self + wait + child == total per span) ---\n";
  std::snprintf(line, sizeof(line), "%-28s %6s %10s %10s %10s %10s\n", "span",
                "count", "total", "self", "wait", "child");
  out += line;
  size_t shown = 0;
  for (const BlameRow& row : analysis.blame) {
    if (++shown > 20) {
      std::snprintf(line, sizeof(line), "  ... %zu more span names\n",
                    analysis.blame.size() - 20);
      out += line;
      break;
    }
    std::snprintf(line, sizeof(line),
                  "%-28s %6llu %10s %10s %10s %10s\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.count),
                  FormatUs(row.total_us).c_str(), FormatUs(row.self_us).c_str(),
                  FormatUs(row.wait_us).c_str(),
                  FormatUs(row.child_us).c_str());
    out += line;
  }

  // The path itself, aggregated by (name, kind): which spans *determined*
  // the wall clock, and how much of it each one owns.
  std::map<std::pair<std::string, int>, uint64_t> path_by_name;
  for (const CriticalSegment& seg : analysis.critical_path) {
    path_by_name[{seg.name, seg.kind}] += seg.end_us - seg.start_us;
  }
  std::vector<std::pair<uint64_t, std::pair<std::string, int>>> ranked;
  ranked.reserve(path_by_name.size());
  for (const auto& [key, us] : path_by_name) ranked.emplace_back(us, key);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::snprintf(line, sizeof(line),
                "\n--- critical path (%s, %s of wall, %zu segments) ---\n",
                FormatUs(analysis.critical_us).c_str(),
                FormatPct(analysis.critical_us, analysis.wall_us).c_str(),
                analysis.critical_path.size());
  out += line;
  shown = 0;
  for (const auto& [us, key] : ranked) {
    if (++shown > 20) {
      std::snprintf(line, sizeof(line), "  ... %zu more entries\n",
                    ranked.size() - 20);
      out += line;
      break;
    }
    std::snprintf(line, sizeof(line), "%s  %10s  %s%s\n",
                  FormatPct(us, analysis.wall_us).c_str(),
                  FormatUs(us).c_str(), key.first.c_str(),
                  key.second == CriticalSegment::kQueue ? "  [queue wait]"
                                                        : "");
    out += line;
  }
  return out;
}

std::string AnalysisJson(const TraceAnalysis& analysis) {
  std::string out = "{";
  out += "\"wall_us\":" + std::to_string(analysis.wall_us);
  out += ",\"trace_start_us\":" + std::to_string(analysis.trace_start_us);
  out += ",\"span_count\":" + std::to_string(analysis.span_count);
  out += ",\"flow_count\":" + std::to_string(analysis.flow_count);
  out += ",\"flows_unmatched\":" + std::to_string(analysis.flows_unmatched);
  out += ",\"critical_us\":" + std::to_string(analysis.critical_us);
  out += ",\"coverage\":" +
         JsonNumber(analysis.wall_us == 0
                        ? 0.0
                        : static_cast<double>(analysis.critical_us) /
                              static_cast<double>(analysis.wall_us));

  out += ",\"critical_path\":[";
  for (size_t i = 0; i < analysis.critical_path.size(); ++i) {
    const CriticalSegment& seg = analysis.critical_path[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + JsonQuote(seg.name);
    out += ",\"tid\":" + std::to_string(seg.tid);
    out += ",\"start_us\":" + std::to_string(seg.start_us);
    out += ",\"end_us\":" + std::to_string(seg.end_us);
    out += ",\"kind\":";
    out += (seg.kind == CriticalSegment::kQueue) ? "\"queue\"" : "\"self\"";
    out += '}';
  }
  out += ']';

  out += ",\"blame\":[";
  for (size_t i = 0; i < analysis.blame.size(); ++i) {
    const BlameRow& row = analysis.blame[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + JsonQuote(row.name);
    out += ",\"count\":" + std::to_string(row.count);
    out += ",\"total_us\":" + std::to_string(row.total_us);
    out += ",\"self_us\":" + std::to_string(row.self_us);
    out += ",\"wait_us\":" + std::to_string(row.wait_us);
    out += ",\"child_us\":" + std::to_string(row.child_us);
    out += ",\"queue_us\":" + std::to_string(row.queue_us);
    out += '}';
  }
  out += ']';

  uint64_t queue_total = std::accumulate(analysis.queue_delays_us.begin(),
                                         analysis.queue_delays_us.end(),
                                         static_cast<uint64_t>(0));
  out += ",\"queue_delay_us\":{";
  out += "\"count\":" + std::to_string(analysis.queue_delays_us.size());
  out += ",\"total\":" + std::to_string(queue_total);
  out += ",\"max\":" + std::to_string(analysis.queue_delays_us.empty()
                                          ? 0
                                          : analysis.queue_delays_us.back());
  out += ",\"p50\":" +
         std::to_string(Percentile(analysis.queue_delays_us, 0.50));
  out += ",\"p95\":" +
         std::to_string(Percentile(analysis.queue_delays_us, 0.95));
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace autoem
