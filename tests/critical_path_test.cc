// Tests for causal tracing (obs v4): flow events, thread-name metadata, the
// owned-name span, and critical-path / blame analysis — on hand-built DAGs
// where every number is checkable by hand, and on a real 8-thread pool
// hammer where the structural invariants (valid JSON, every flow `s`
// matched by exactly one `f`, blame partition exact, critical path covering
// the wall clock) must hold for whatever schedule the machine produced.
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/thread_pool.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace autoem {
namespace {

bool IsValidJson(const std::string& text) {
  return obs::ParseJson(text).ok();
}

// ---- hand-built event helpers ---------------------------------------------

obs::TraceEvent Sp(const char* name, unsigned tid, uint64_t start,
                   uint64_t dur) {
  obs::TraceEvent e;
  e.name = name;
  e.ph = 'X';
  e.tid = tid;
  e.ts_us = start;
  e.dur_us = dur;
  return e;
}

obs::TraceEvent Flow(char ph, uint64_t id, unsigned tid, uint64_t ts) {
  obs::TraceEvent e;
  e.name = "pool.task";
  e.ph = ph;
  e.tid = tid;
  e.ts_us = ts;
  e.flow_id = id;
  return e;
}

void ExpectBlameReconciles(const obs::TraceAnalysis& analysis) {
  for (const obs::SpanNode& node : analysis.spans) {
    EXPECT_EQ(node.self_us + node.child_us + node.wait_us, node.dur_us())
        << "span '" << node.name << "' blame does not partition its duration";
  }
}

uint64_t PathTotal(const obs::TraceAnalysis& analysis) {
  uint64_t total = 0;
  uint64_t prev_end = 0;
  bool first = true;
  for (const obs::CriticalSegment& seg : analysis.critical_path) {
    EXPECT_LE(seg.start_us, seg.end_us);
    if (!first) {
      // Chronological and gapless: each segment starts where the previous
      // one ended.
      EXPECT_EQ(seg.start_us, prev_end);
    }
    first = false;
    prev_end = seg.end_us;
    total += seg.end_us - seg.start_us;
  }
  return total;
}

// ---- hand-built DAGs ------------------------------------------------------

// chain: root [0,100] > child [10,40] > grandchild [20,30], one thread.
TEST(CriticalPathTest, ChainNestingAndBlame) {
  std::vector<obs::TraceEvent> events = {
      Sp("root", 1, 0, 100),
      Sp("child", 1, 10, 30),
      Sp("grandchild", 1, 20, 10),
  };
  auto analysis = obs::AnalyzeTrace(events);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->span_count, 3u);
  EXPECT_EQ(analysis->wall_us, 100u);
  EXPECT_EQ(analysis->flow_count, 0u);

  std::map<std::string, const obs::SpanNode*> by_name;
  for (const obs::SpanNode& n : analysis->spans) by_name[n.name] = &n;
  ASSERT_EQ(by_name.size(), 3u);
  EXPECT_EQ(by_name["root"]->parent, -1);
  EXPECT_EQ(by_name["grandchild"]->children.size(), 0u);
  EXPECT_EQ(by_name["root"]->self_us, 70u);
  EXPECT_EQ(by_name["root"]->child_us, 30u);
  EXPECT_EQ(by_name["root"]->wait_us, 0u);
  EXPECT_EQ(by_name["child"]->self_us, 20u);
  EXPECT_EQ(by_name["child"]->child_us, 10u);
  EXPECT_EQ(by_name["grandchild"]->self_us, 10u);
  ExpectBlameReconciles(*analysis);

  // The critical path partitions the whole wall clock on a chain.
  EXPECT_EQ(PathTotal(*analysis), analysis->wall_us);
  EXPECT_EQ(analysis->critical_us, analysis->wall_us);
}

// diamond: "search" on tid 1 submits two tasks that run on tids 2 and 3;
// the critical path must go through the later-finishing task, charge its
// queue wait explicitly, and still cover the full wall clock.
TEST(CriticalPathTest, DiamondFlowsQueueDelayAndCriticalPath) {
  std::vector<obs::TraceEvent> events = {
      Sp("search", 1, 0, 100),
      Flow('s', 1, 1, 10),
      Flow('s', 2, 1, 12),
      Sp("pool.task", 2, 20, 30),  // flow 1 executes here: queue wait 10
      Flow('f', 1, 2, 20),
      Sp("pool.task", 3, 30, 60),  // flow 2 executes here: queue wait 18
      Flow('f', 2, 3, 30),
  };
  auto analysis = obs::AnalyzeTrace(events);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->span_count, 3u);
  EXPECT_EQ(analysis->flow_count, 2u);
  EXPECT_EQ(analysis->flows_unmatched, 0u);
  EXPECT_EQ(analysis->wall_us, 100u);

  ASSERT_EQ(analysis->queue_delays_us.size(), 2u);
  EXPECT_EQ(analysis->queue_delays_us[0], 10u);  // sorted ascending
  EXPECT_EQ(analysis->queue_delays_us[1], 18u);

  // Submitter blame: its tasks' lifetimes [10,50] u [12,90] cover [10,90]
  // of it — 80us waiting, 20us of its own work, no nested children.
  const obs::SpanNode* search = nullptr;
  for (const obs::SpanNode& n : analysis->spans) {
    if (n.name == "search") search = &n;
  }
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->wait_us, 80u);
  EXPECT_EQ(search->self_us, 20u);
  EXPECT_EQ(search->child_us, 0u);
  EXPECT_EQ(search->flow_targets.size(), 2u);
  ExpectBlameReconciles(*analysis);

  // Path: search self [0,10], queue [10,12]+[12,30] (coalesced per task),
  // task-2 self [30,90], search self [90,100] — total exactly the wall.
  EXPECT_EQ(PathTotal(*analysis), analysis->wall_us);
  EXPECT_EQ(analysis->critical_us, analysis->wall_us);
  uint64_t queue_on_path = 0;
  bool saw_late_task_self = false;
  for (const obs::CriticalSegment& seg : analysis->critical_path) {
    if (seg.kind == obs::CriticalSegment::kQueue) {
      queue_on_path += seg.end_us - seg.start_us;
    }
    if (seg.kind == obs::CriticalSegment::kSelf && seg.tid == 3 &&
        seg.start_us == 30 && seg.end_us == 90) {
      saw_late_task_self = true;
    }
  }
  EXPECT_EQ(queue_on_path, 20u);  // [10,30]: waiting for the critical task
  EXPECT_TRUE(saw_late_task_self);

  // Blame rows aggregate by name: two pool.task instances, queue 28us.
  const obs::BlameRow* task_row = nullptr;
  for (const obs::BlameRow& row : analysis->blame) {
    if (row.name == "pool.task") task_row = &row;
  }
  ASSERT_NE(task_row, nullptr);
  EXPECT_EQ(task_row->count, 2u);
  EXPECT_EQ(task_row->total_us, 90u);
  EXPECT_EQ(task_row->queue_us, 28u);
}

// orphan flow: an `s` with no `f` (tracing stopped before the task ran)
// must count as unmatched and not derail the analysis.
TEST(CriticalPathTest, OrphanFlowIsCountedNotFatal) {
  std::vector<obs::TraceEvent> events = {
      Sp("root", 1, 0, 50),
      Flow('s', 7, 1, 5),
  };
  auto analysis = obs::AnalyzeTrace(events);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->flow_count, 0u);
  EXPECT_EQ(analysis->flows_unmatched, 1u);
  EXPECT_EQ(analysis->spans[0].wait_us, 0u);
  ExpectBlameReconciles(*analysis);
  EXPECT_EQ(analysis->critical_us, analysis->wall_us);

  // Same for a dangling `f` (trace started after the submit).
  std::vector<obs::TraceEvent> tail = {
      Sp("root", 1, 0, 50),
      Flow('f', 9, 1, 5),
  };
  auto tail_analysis = obs::AnalyzeTrace(tail);
  ASSERT_TRUE(tail_analysis.ok());
  EXPECT_EQ(tail_analysis->flow_count, 0u);
  EXPECT_EQ(tail_analysis->flows_unmatched, 1u);
}

// Parallel top-level spans with a gap between them: the walk must attribute
// the gap to "(untraced)" and still partition the full interval.
TEST(CriticalPathTest, TopLevelGapBecomesUntraced) {
  std::vector<obs::TraceEvent> events = {
      Sp("phase1", 1, 0, 40),
      Sp("phase2", 1, 60, 40),
  };
  auto analysis = obs::AnalyzeTrace(events);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->wall_us, 100u);
  EXPECT_EQ(PathTotal(*analysis), 100u);
  uint64_t untraced = 0;
  for (const obs::CriticalSegment& seg : analysis->critical_path) {
    if (seg.name == "(untraced)") untraced += seg.end_us - seg.start_us;
  }
  EXPECT_EQ(untraced, 20u);
}

TEST(CriticalPathTest, RejectsMalformedAndEmptyTraces) {
  EXPECT_FALSE(obs::AnalyzeTrace({}).ok());
  EXPECT_FALSE(obs::AnalyzeTraceJson("").ok());
  EXPECT_FALSE(obs::AnalyzeTraceJson("{").ok());
  EXPECT_FALSE(obs::AnalyzeTraceJson("[]").ok());
  EXPECT_FALSE(obs::AnalyzeTraceJson("{\"foo\":1}").ok());
  EXPECT_FALSE(obs::AnalyzeTraceJson("[1]").ok());
  EXPECT_FALSE(obs::AnalyzeTraceJson("\"traceEvents\"").ok());
  // Structurally valid but span-free.
  EXPECT_FALSE(obs::AnalyzeTraceJson("{\"traceEvents\":[]}").ok());
  // Minimal valid trace, in both Chrome layouts: TraceJson's object and a
  // bare event array.
  const std::string event =
      "{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":5,\"dur\":10}";
  for (const std::string& trace :
       {"{\"traceEvents\":[" + event + "],\"displayTimeUnit\":\"ms\"}",
        "[" + event + "]"}) {
    auto ok = obs::AnalyzeTraceJson(trace);
    ASSERT_TRUE(ok.ok()) << trace << ": " << ok.status().ToString();
    EXPECT_EQ(ok->span_count, 1u);
    EXPECT_EQ(ok->wall_us, 10u);
  }
}

// Spans a [0,10] and b [2,3] on tid 1, with `field_json` (e.g.
// "\"ts\":1e300") appended to b; a repeated key overrides b's default.
std::string TraceWith(const std::string& field_json) {
  return "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"tid\":1,"
         "\"ts\":0,\"dur\":10},{\"name\":\"b\",\"ph\":\"X\",\"tid\":1,"
         "\"ts\":2,\"dur\":1," +
         field_json + "}]}";
}

// A deeply nested value under an ignored key is an error, not unbounded
// recursion.
TEST(CriticalPathTest, DeepNestingIsInvalidArgumentNotACrash) {
  std::string trace = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\","
                      "\"tid\":1,\"ts\":0,\"dur\":10}],\"ignored\":" +
                      std::string(200000, '[') + std::string(200000, ']') +
                      "}";
  auto analysis = obs::AnalyzeTraceJson(trace);
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.status().code(), StatusCode::kInvalidArgument);
}

// Numeric fields are range-checked before the integer cast (casting 1e300
// is undefined behaviour), and a string must hold one whole JSON number.
TEST(CriticalPathTest, RejectsOutOfRangeAndMalformedNumericFields) {
  ASSERT_TRUE(obs::AnalyzeTraceJson(TraceWith("\"pid\":1")).ok());
  for (const char* field :
       {"\"ts\":1e300", "\"dur\":1e300", "\"id\":1e300",
        "\"ts\":9007199254740994", "\"tid\":4294967296", "\"tid\":-1",
        "\"ts\":\"1e5e5\"", "\"id\":\"7x\"", "\"ts\":true",
        "\"ts\":0x10"}) {
    auto analysis = obs::AnalyzeTraceJson(TraceWith(field));
    EXPECT_FALSE(analysis.ok()) << field;
  }
  // The bounds themselves are accepted, fractions truncate, and a string
  // holding one JSON number still reads.
  auto edge = obs::AnalyzeTraceJson(
      TraceWith("\"tid\":4294967295,\"ts\":9007199254740991,\"dur\":1"));
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->wall_us, 9007199254740992u);
  auto fractional = obs::AnalyzeTraceJson(TraceWith("\"ts\":\"4.9\""));
  ASSERT_TRUE(fractional.ok()) << fractional.status().ToString();
  for (const obs::SpanNode& node : fractional->spans) {
    if (node.name == "b") {
      EXPECT_EQ(node.start_us, 4u);
      EXPECT_EQ(node.parent, 0);  // nested inside a
    }
  }
}

TEST(CriticalPathTest, AnalysisJsonIsValidAndCarriesQueueStats) {
  std::vector<obs::TraceEvent> events = {
      Sp("search", 1, 0, 100),
      Flow('s', 1, 1, 10),
      Sp("pool.task", 2, 20, 30),
      Flow('f', 1, 2, 20),
  };
  auto analysis = obs::AnalyzeTrace(events);
  ASSERT_TRUE(analysis.ok());
  std::string json = obs::AnalysisJson(*analysis);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"critical_path\":["), std::string::npos);
  EXPECT_NE(json.find("\"queue_delay_us\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"blame\":["), std::string::npos);

  std::string text = obs::FormatAnalysisText(*analysis);
  EXPECT_NE(text.find("where the time went"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("queue delay"), std::string::npos);
}

// ---- live tracer: owned names, thread names, flows ------------------------

TEST(CausalTraceTest, OwnedNameSpanRecordsLabel) {
  obs::StartTracing();
  {
    std::string dynamic = "trial-" + std::to_string(42);
    obs::Span span(dynamic);
    EXPECT_TRUE(span.active());
  }
  obs::StopTracing();
  bool found = false;
  for (const obs::TraceEvent& e : obs::SnapshotTraceEvents()) {
    if (std::string(e.label()) == "trial-42") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CausalTraceTest, FlowPairDisabledAndEnabledSemantics) {
  obs::StopTracing();
  EXPECT_EQ(obs::EmitFlowStart("pool.task"), 0u);  // disabled → no id

  obs::StartTracing();
  uint64_t id = obs::EmitFlowStart("pool.task");
  EXPECT_GT(id, 0u);
  obs::EmitFlowFinish("pool.task", id);
  obs::EmitFlowFinish("pool.task", 0);  // no-op, never recorded
  obs::StopTracing();

  size_t starts = 0, finishes = 0;
  for (const obs::TraceEvent& e : obs::SnapshotTraceEvents()) {
    if (e.ph == 's') ++starts;
    if (e.ph == 'f') {
      ++finishes;
      EXPECT_EQ(e.flow_id, id);
    }
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);

  std::string json = obs::TraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(CausalTraceTest, ThreadNameMetadataInTraceJson) {
  obs::SetCurrentThreadName("main");
  ThreadPool pool(2);  // workers self-register as worker-0 / worker-1
  pool.ParallelFor(4, [](size_t) {});
  // The caller may run every chunk itself before a worker has started and
  // named itself; wait for both names rather than race them.
  auto named = [](const std::string& want) {
    for (const auto& [tid, name] : obs::SnapshotThreadNames()) {
      if (name == want) return true;
    }
    return false;
  };
  for (int i = 0; i < 500 && !(named("worker-0") && named("worker-1")); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  obs::StartTracing();
  { obs::Span span("anything"); }
  obs::StopTracing();
  std::string json = obs::TraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-1\""), std::string::npos);
}

// ---- 8-thread hammer ------------------------------------------------------

TEST(CausalTraceTest, EightThreadHammerFlowsMatchAndAnalyze) {
  obs::StartTracing();
  {
    obs::Span root("hammer.root");
    ThreadPool pool(8);
    // Two shapes of submission: raw Submit closures and chunked
    // ParallelFor, both from inside the root span.
    std::atomic<uint64_t> sink{0};
    for (int round = 0; round < 4; ++round) {
      obs::Span wave("hammer.wave");
      for (int i = 0; i < 32; ++i) {
        pool.Submit([&sink] {
          obs::Span inner("hammer.leaf");
          uint64_t acc = 0;
          for (int k = 0; k < 2000; ++k) acc += static_cast<uint64_t>(k) * k;
          sink.fetch_add(acc, std::memory_order_relaxed);
        });
      }
      pool.Wait();
      pool.ParallelFor(
          64,
          [&sink](size_t i) {
            sink.fetch_add(i, std::memory_order_relaxed);
          },
          "hammer.chunk");
    }
    EXPECT_GT(sink.load(), 0u);
  }
  obs::StopTracing();

  std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  std::map<uint64_t, int> starts, finishes;
  size_t spans = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.ph == 'X') ++spans;
    if (e.ph == 's') starts[e.flow_id]++;
    if (e.ph == 'f') finishes[e.flow_id]++;
  }
  EXPECT_GT(spans, 128u);
  ASSERT_FALSE(starts.empty());
  // Every flow start matched by exactly one finish, and vice versa.
  for (const auto& [id, count] : starts) {
    EXPECT_EQ(count, 1) << "duplicate s for flow " << id;
    EXPECT_EQ(finishes.count(id), 1u) << "flow " << id << " has no f";
    if (finishes.count(id)) EXPECT_EQ(finishes.at(id), 1);
  }
  EXPECT_EQ(starts.size(), finishes.size());

  std::string json = obs::TraceJson();
  EXPECT_TRUE(IsValidJson(json));

  auto analysis = obs::AnalyzeTraceJson(json);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->span_count, spans);
  EXPECT_EQ(analysis->flow_count + analysis->flows_unmatched, starts.size());
  ExpectBlameReconciles(*analysis);
  // Acceptance bar: the path must explain at least 90% of the wall clock;
  // by construction it partitions it exactly.
  EXPECT_GE(static_cast<double>(analysis->critical_us),
            0.9 * static_cast<double>(analysis->wall_us));
  EXPECT_EQ(PathTotal(*analysis), analysis->critical_us);
}

// Queue-delay metrics: with probes on, pooled tasks must feed the
// threadpool.wait_micros counter and queue_delay_ms histogram.
TEST(CausalTraceTest, QueueDelayMetricsRecordedUnderProbes) {
  obs::Counter* wait =
      obs::MetricsRegistry::Global().GetCounter("threadpool.wait_micros");
  obs::Histogram* delay =
      obs::MetricsRegistry::Global().GetHistogram("threadpool.queue_delay_ms");
  uint64_t hist_before = delay->Snap().count;
  bool probes_before = obs::ResourceProbesEnabled();
  obs::SetResourceProbesEnabled(true);
  (void)wait->Total();
  {
    ThreadPool pool(4);
    pool.ParallelFor(64, [](size_t) {
      volatile uint64_t acc = 0;
      for (int k = 0; k < 500; ++k) acc += k;
    });
  }
  obs::SetResourceProbesEnabled(probes_before);
  EXPECT_GT(delay->Snap().count, hist_before);
}

}  // namespace
}  // namespace autoem
