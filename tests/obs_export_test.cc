// Tests for the obs v2 export surface: OpenMetrics text exposition
// conformance, the background MetricsFlusher (including a multi-thread
// hammer meant to run under tsan), ResourceProbe accounting, and the
// self-contained HTML run report.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "automl/config_io.h"
#include "automl/evaluator.h"
#include "io/atomic_file.h"
#include "obs/flusher.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/resource.h"

namespace autoem {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string MustRead(const std::string& path) {
  std::string bytes;
  Status st = io::ReadFileToString(path, &bytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

// Extracts the sample value following `prefix ` on its exposition line.
double SampleValue(const std::string& exposition, const std::string& prefix) {
  size_t pos = exposition.find("\n" + prefix + " ");
  if (pos == std::string::npos && exposition.rfind(prefix + " ", 0) == 0) {
    pos = 0;
  } else if (pos != std::string::npos) {
    pos += 1;  // skip the leading newline
  } else {
    ADD_FAILURE() << "no sample line for " << prefix;
    return -1.0;
  }
  return std::strtod(exposition.c_str() + pos + prefix.size() + 1, nullptr);
}

// ---- OpenMetrics exposition -----------------------------------------------------

TEST(OpenMetricsTest, EmitsTypedFamiliesAndEof) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("omtest.requests")->Add(3);
  reg.GetGauge("omtest.best_f1")->Set(0.75);
  std::string om = reg.SnapshotOpenMetrics();

  EXPECT_NE(om.find("# TYPE omtest_requests counter\n"), std::string::npos);
  EXPECT_NE(om.find("omtest_requests_total 3\n"), std::string::npos);
  EXPECT_NE(om.find("# TYPE omtest_best_f1 gauge\n"), std::string::npos);
  EXPECT_DOUBLE_EQ(SampleValue(om, "omtest_best_f1"), 0.75);
  // The exposition must terminate with the EOF marker, nothing after it.
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");
}

TEST(OpenMetricsTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram* hist =
      reg.GetHistogram("omtest.latency_ms", {1.0, 10.0});
  hist->Observe(0.5);    // <= 1
  hist->Observe(5.0);    // <= 10
  hist->Observe(100.0);  // overflow
  std::string om = reg.SnapshotOpenMetrics();

  EXPECT_NE(om.find("# TYPE omtest_latency_ms histogram\n"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(SampleValue(om, "omtest_latency_ms_bucket{le=\"1\"}"),
                   1.0);
  EXPECT_DOUBLE_EQ(SampleValue(om, "omtest_latency_ms_bucket{le=\"10\"}"),
                   2.0);
  // Cumulative: the mandatory terminal +Inf bucket equals _count.
  EXPECT_DOUBLE_EQ(SampleValue(om, "omtest_latency_ms_bucket{le=\"+Inf\"}"),
                   3.0);
  EXPECT_DOUBLE_EQ(SampleValue(om, "omtest_latency_ms_count"), 3.0);
  EXPECT_DOUBLE_EQ(SampleValue(om, "omtest_latency_ms_sum"), 105.5);
  // +Inf is the *last* bucket row: no bucket line may follow it.
  size_t inf_pos = om.find("omtest_latency_ms_bucket{le=\"+Inf\"}");
  size_t sum_pos = om.find("omtest_latency_ms_sum");
  ASSERT_NE(inf_pos, std::string::npos);
  ASSERT_NE(sum_pos, std::string::npos);
  EXPECT_LT(inf_pos, sum_pos);
  EXPECT_EQ(om.find("omtest_latency_ms_bucket", inf_pos + 1), std::string::npos);
}

TEST(OpenMetricsTest, SanitizesNamesToLegalCharset) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("omtest.weird-name.v2/x")->Add();
  std::string om = reg.SnapshotOpenMetrics();
  // Dots, dashes, and slashes all map to '_'; the original spelling must
  // not appear anywhere in the exposition.
  EXPECT_NE(om.find("omtest_weird_name_v2_x_total 1\n"), std::string::npos);
  EXPECT_EQ(om.find("omtest.weird-name"), std::string::npos);
}

TEST(OpenMetricsTest, CountersAreMonotonicAcrossSnapshots) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("omtest.mono");
  c->Add(2);
  double first = SampleValue(reg.SnapshotOpenMetrics(), "omtest_mono_total");
  c->Add(5);
  double second = SampleValue(reg.SnapshotOpenMetrics(), "omtest_mono_total");
  EXPECT_EQ(first, 2.0);
  EXPECT_EQ(second, 7.0);
  EXPECT_GE(second, first) << "counter went backwards between snapshots";
}

TEST(OpenMetricsTest, JsonLineSnapshotIsSingleLine) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("omtest.line")->Add();
  std::string line = reg.SnapshotJsonLine(1.25);
  EXPECT_EQ(line.rfind("{\"ts_s\": 1.25,", 0), 0u) << line.substr(0, 40);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"counters\":"), std::string::npos);
  EXPECT_NE(line.find("\"omtest.line\": 1"), std::string::npos);
  EXPECT_EQ(line.back(), '}');
}

// ---- MetricsFlusher -------------------------------------------------------------

TEST(MetricsFlusherTest, JsonlSeriesGrowsAndFinalSnapshotIsWritten) {
  std::string path = TempPath("autoem_flush_series.jsonl");
  std::remove(path.c_str());
  obs::MetricsRegistry::Global().GetCounter("flushtest.ticks")->Add();
  {
    obs::MetricsFlusher::Options options;
    options.path = path;
    options.interval_seconds = 3600.0;  // manual flushes only
    options.format = "jsonl";
    obs::MetricsFlusher flusher(options);
    flusher.FlushNow();
    obs::MetricsRegistry::Global().GetCounter("flushtest.ticks")->Add();
    flusher.FlushNow();
    EXPECT_GE(flusher.flush_count(), 2u);
    // Destructor writes one more (the final, never-torn snapshot).
  }
  std::string series = MustRead(path);
  size_t lines = 0;
  size_t pos = 0;
  while ((pos = series.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_GE(lines, 3u);
  // Every record is one complete JSON object line with a timestamp.
  size_t start = 0;
  while (start < series.size()) {
    size_t end = series.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated final line";
    std::string line = series.substr(start, end - start);
    EXPECT_EQ(line.rfind("{\"ts_s\":", 0), 0u) << line.substr(0, 40);
    EXPECT_EQ(line.back(), '}');
    start = end + 1;
  }
  std::remove(path.c_str());
}

// The flusher exports its own health: a flush counter, a duration histogram
// (trailing by one flush — a flush cannot know its own duration), and a
// final-snapshot marker bumped by the destructor, so the last line of the
// series proves the shutdown flush ran.
TEST(MetricsFlusherTest, ExportsItsOwnHealthMetrics) {
  std::string path = TempPath("autoem_flush_health.jsonl");
  std::remove(path.c_str());
  {
    obs::MetricsFlusher::Options options;
    options.path = path;
    options.interval_seconds = 3600.0;  // manual flushes only
    options.format = "jsonl";
    obs::MetricsFlusher flusher(options);
    flusher.FlushNow();
    flusher.FlushNow();
    flusher.FlushNow();
  }
  std::string series = MustRead(path);
  // Every snapshot after the first carries the running flush counter.
  EXPECT_NE(series.find("\"obs.flush_count\""), std::string::npos);
  // The third flush observed the second's duration (trailing histogram), so
  // the histogram exists in the final snapshot.
  EXPECT_NE(series.find("\"obs.flush_duration_ms"), std::string::npos);
  // The destructor's final snapshot is marked.
  size_t last_line = series.rfind('\n', series.size() - 2);
  std::string final_line =
      series.substr(last_line == std::string::npos ? 0 : last_line + 1);
  EXPECT_NE(final_line.find("\"obs.flush_final\""), std::string::npos)
      << final_line.substr(0, 200);
  std::remove(path.c_str());
}

TEST(MetricsFlusherTest, OpenMetricsFormatEndsWithEof) {
  std::string path = TempPath("autoem_flush_om.txt");
  std::remove(path.c_str());
  obs::MetricsRegistry::Global().GetCounter("flushtest.om_ticks")->Add();
  {
    obs::MetricsFlusher::Options options;
    options.path = path;
    options.interval_seconds = 3600.0;
    options.format = "openmetrics";
    obs::MetricsFlusher flusher(options);
    flusher.FlushNow();
  }
  std::string om = MustRead(path);
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");
  EXPECT_NE(om.find("# TYPE "), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsFlusherTest, BackgroundThreadFlushesOnItsOwn) {
  std::string path = TempPath("autoem_flush_bg.jsonl");
  std::remove(path.c_str());
  obs::MetricsFlusher::Options options;
  options.path = path;
  options.interval_seconds = 0.01;
  options.format = "jsonl";
  obs::MetricsFlusher flusher(options);
  for (int i = 0; i < 200 && flusher.flush_count() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(flusher.flush_count(), 2u) << "background flusher never fired";
  std::remove(path.c_str());
}

// The tsan workhorse: 8 writer threads hammer a histogram and a counter
// while snapshots are taken concurrently — the lock-free shard writes and
// the flusher's merge must not race.
TEST(MetricsFlusherTest, ConcurrentHammerWhileFlushing) {
  std::string path = TempPath("autoem_flush_hammer.jsonl");
  std::remove(path.c_str());
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram* hist = reg.GetHistogram("flushtest.hammer_ms");
  obs::Counter* counter = reg.GetCounter("flushtest.hammer_ops");

  obs::MetricsFlusher::Options options;
  options.path = path;
  options.interval_seconds = 0.01;  // keep the background thread busy too
  options.format = "jsonl";
  {
    obs::MetricsFlusher flusher(options);
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 20000;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          hist->Observe(static_cast<double>((t * 31 + i) % 1000));
          counter->Add();
        }
      });
    }
    for (int i = 0; i < 50; ++i) flusher.FlushNow();
    for (std::thread& w : writers) w.join();
    flusher.FlushNow();
  }
  // After all writers joined, the final (destructor) snapshot must account
  // for every operation.
  obs::Histogram::Snapshot snap = hist->Snap();
  EXPECT_EQ(snap.count, 8u * 20000u);
  EXPECT_EQ(counter->Total(), 8u * 20000u);
  std::string series = MustRead(path);
  EXPECT_NE(series.find("\"flushtest.hammer_ops\": 160000"),
            std::string::npos);
  std::remove(path.c_str());
}

// ---- ResourceProbe --------------------------------------------------------------

TEST(ResourceProbeTest, DisabledProbeSamplesNothing) {
  obs::SetResourceProbesEnabled(false);
  obs::ResourceProbe probe;
  EXPECT_FALSE(probe.active());
  obs::ResourceUsage usage = probe.Take();
  EXPECT_EQ(usage.cpu_seconds, 0.0);
  EXPECT_EQ(usage.peak_rss_delta_kb, 0);
  EXPECT_EQ(usage.allocs, 0u);
}

TEST(ResourceProbeTest, EnabledProbeMeasuresWorkAndAllocations) {
  obs::SetResourceProbesEnabled(true);
  obs::SetAllocationCounting(true);
  {
    obs::ResourceProbe probe;
    ASSERT_TRUE(probe.active());
    // Burn a little CPU and make heap allocations the hook must count.
    volatile double sink = 0.0;
    std::vector<std::string> strings;
    for (int i = 0; i < 2000; ++i) {
      strings.push_back(std::string(64, static_cast<char>('a' + i % 26)));
      for (int j = 0; j < 200; ++j) sink += j * 0.5;
    }
    obs::ResourceUsage usage = probe.Take();
    EXPECT_GE(usage.cpu_seconds, 0.0);
    EXPECT_GT(usage.allocs, 0u);
  }
  obs::SetAllocationCounting(false);
  obs::SetResourceProbesEnabled(false);
}

TEST(ResourceProbeTest, RawSamplersReportPlausibleValues) {
  double cpu = obs::ThreadCpuSeconds();
  EXPECT_GE(cpu, 0.0);
  // Any live Linux process has a nonzero peak RSS.
  EXPECT_GT(obs::PeakRssKb(), 0);
}

// ---- run report -----------------------------------------------------------------

std::vector<EvalRecord> MakeTrajectory() {
  EvalRecord ok;
  ok.config["classifier:__choice__"] = std::string("random_forest");
  ok.config["classifier:random_forest:n_estimators"] = 64;
  ok.valid_f1 = 0.82;
  ok.test_f1 = 0.8;
  ok.fit_seconds = 0.4;
  ok.trial = 0;
  ok.elapsed_seconds = 1.5;
  ok.telemetry.cpu_seconds = 0.37;
  ok.telemetry.peak_rss_delta_kb = 2048;
  ok.telemetry.allocs = 123456;

  EvalRecord failed = ok;
  failed.trial = 1;
  failed.valid_f1 = 0.0;
  failed.test_f1 = -1.0;
  failed.failure = TrialFailure::kTimeout;
  failed.failure_message = "deadline exceeded";
  failed.config["classifier:random_forest:n_estimators"] = 512;
  return {ok, failed};
}

TEST(RunReportTest, CoversEveryTrialIncludingFailures) {
  std::vector<EvalRecord> trajectory = MakeTrajectory();
  obs::ReportInputs inputs;
  inputs.title = "unit-test run";
  inputs.trajectory_csv = SerializeTrajectoryCsv(trajectory);
  std::string html = obs::BuildRunReportHtml(inputs);

  ASSERT_FALSE(html.empty());
  // 100% trial coverage: each config hash from the CSV appears in the
  // embedded payload, completed and quarantined alike.
  char hash0[32], hash1[32];
  std::snprintf(hash0, sizeof(hash0), "%016llx",
                static_cast<unsigned long long>(
                    ConfigurationHash(trajectory[0].config)));
  std::snprintf(hash1, sizeof(hash1), "%016llx",
                static_cast<unsigned long long>(
                    ConfigurationHash(trajectory[1].config)));
  EXPECT_NE(html.find(hash0), std::string::npos);
  EXPECT_NE(html.find(hash1), std::string::npos);
  EXPECT_NE(html.find("timeout"), std::string::npos);
  EXPECT_NE(html.find("unit-test run"), std::string::npos);
}

TEST(RunReportTest, IsSelfContained) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv = SerializeTrajectoryCsv(MakeTrajectory());
  inputs.metrics_text =
      obs::MetricsRegistry::Global().SnapshotJsonLine(0.5) + "\n" +
      obs::MetricsRegistry::Global().SnapshotJsonLine(1.0) + "\n";
  inputs.trace_json =
      "[\n{\"name\":\"automl.trial\",\"cat\":\"autoem\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":250}\n]\n";
  std::string html = obs::BuildRunReportHtml(inputs);

  // A single archivable file: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_NE(html.find("<canvas"), std::string::npos);
  EXPECT_NE(html.find("<script id=\"payload\" type=\"application/json\">"),
            std::string::npos);
  // The metrics series and the bare-array trace's blame table made it into
  // the payload.
  EXPECT_NE(html.find("\"metrics_series\""), std::string::npos);
  EXPECT_NE(html.find("automl.trial"), std::string::npos);
}

TEST(RunReportTest, EscapesHostileTitleAndPayload) {
  obs::ReportInputs inputs;
  inputs.title = "<script>alert(1)</script> & friends";
  inputs.trajectory_csv = SerializeTrajectoryCsv(MakeTrajectory());
  // A trace whose span name tries to break out of the payload script tag.
  inputs.trace_json =
      "[\n{\"name\":\"</script><b>x\",\"cat\":\"autoem\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":5}\n]\n";
  std::string html = obs::BuildRunReportHtml(inputs);
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  // The only "</script>" occurrences are the document's own closing tags;
  // the payload's embedded one must be escaped to <\/script>.
  EXPECT_NE(html.find("<\\/script>"), std::string::npos);
}

// The report's embedded payload, parsed; every report must carry one that
// the strict reader accepts.
obs::JsonValue Payload(const std::string& html) {
  const std::string open = "<script id=\"payload\" type=\"application/json\">";
  size_t begin = html.find(open);
  if (begin == std::string::npos) {
    ADD_FAILURE() << "no payload";
    return {};
  }
  begin += open.size();
  size_t end = html.find("</script>", begin);
  auto payload =
      obs::ParseJson(std::string_view(html).substr(begin, end - begin));
  if (!payload.ok()) {
    ADD_FAILURE() << "payload rejected: " << payload.status().ToString();
    return {};
  }
  return std::move(*payload);
}

// Metrics text that does not parse is embedded as a raw string, never
// verbatim: one bad line would make the page's JSON.parse fail and blank
// every section.
TEST(RunReportTest, MalformedMetricsFallBackToRawText) {
  for (const std::string metrics :
       {"{\"counters\":{\"a\":}}",
        "{\"counters\":{\"a\":1}}\n{\"counters\":{\"a\":}}\n"}) {
    obs::ReportInputs inputs;
    inputs.trajectory_csv = SerializeTrajectoryCsv(MakeTrajectory());
    inputs.metrics_text = metrics;
    obs::JsonValue payload = Payload(obs::BuildRunReportHtml(inputs));
    ASSERT_TRUE(payload.is_object());
    EXPECT_EQ(payload.Find("metrics_series")->type,
              obs::JsonValue::Type::kNull);
    EXPECT_EQ(payload.Find("metrics_final")->type,
              obs::JsonValue::Type::kNull);
    ASSERT_TRUE(payload.Find("metrics_raw")->is_string());
    EXPECT_NE(payload.Find("metrics_raw")->string.find("\"a\":}"),
              std::string::npos);
  }
}

// Only fields that are JSON numbers embed unquoted; 007, 0x10, +1 and 1.
// are not.
TEST(RunReportTest, CsvFieldsEmbedOnlyJsonNumbers) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv =
      "trial,valid_f1,test_f1,fit_seconds,elapsed_seconds\n"
      "0,007,0x10,+1,1.\n"
      "1,0.5,-2e-3,1e400,nan\n";
  obs::JsonValue payload = Payload(obs::BuildRunReportHtml(inputs));
  ASSERT_TRUE(payload.is_object());
  const std::vector<obs::JsonValue>& trials = payload.Find("trials")->array;
  ASSERT_EQ(trials.size(), 2u);
  EXPECT_EQ(trials[0].Find("trial")->number, 0.0);
  EXPECT_EQ(trials[0].Find("valid_f1")->string, "007");
  EXPECT_EQ(trials[0].Find("test_f1")->string, "0x10");
  EXPECT_EQ(trials[0].Find("fit_seconds")->string, "+1");
  EXPECT_EQ(trials[0].Find("elapsed_seconds")->string, "1.");
  EXPECT_EQ(trials[1].Find("valid_f1")->number, 0.5);
  EXPECT_EQ(trials[1].Find("test_f1")->number, -2e-3);
  EXPECT_EQ(trials[1].Find("fit_seconds")->string, "1e400");
  EXPECT_EQ(trials[1].Find("elapsed_seconds")->string, "nan");
}

// The trajectory is read with the CSV reader, so a quoted cell holding a
// comma stays one cell.
TEST(RunReportTest, QuotedTrajectoryCellStaysOneCell) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv = "trial,failure\n0,\"a,b\"\n";
  obs::JsonValue payload = Payload(obs::BuildRunReportHtml(inputs));
  ASSERT_TRUE(payload.is_object());
  const std::vector<obs::JsonValue>& trials = payload.Find("trials")->array;
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(trials[0].Find("trial")->number, 0.0);
  EXPECT_EQ(trials[0].Find("failure")->string, "a,b");
}

// A trial run without probes carries empty telemetry cells, which the
// payload embeds as "" — so the page's `sampled` filter skips it and the
// resources chart shows its "rerun with --resources" hint instead of a
// zero-cost bar. A probed trial's cells stay numbers.
TEST(RunReportTest, UnmeasuredTelemetryStaysUnmeasured) {
  std::vector<EvalRecord> trajectory = MakeTrajectory();
  trajectory[1].telemetry = TrialTelemetry{};
  obs::ReportInputs inputs;
  inputs.trajectory_csv = SerializeTrajectoryCsv(trajectory);
  obs::JsonValue payload = Payload(obs::BuildRunReportHtml(inputs));
  ASSERT_TRUE(payload.is_object());
  const std::vector<obs::JsonValue>& trials = payload.Find("trials")->array;
  ASSERT_EQ(trials.size(), 2u);
  const obs::JsonValue* probed = trials[0].Find("cpu_seconds");
  ASSERT_NE(probed, nullptr);
  EXPECT_TRUE(probed->is_number());
  EXPECT_EQ(probed->number, 0.37);
  for (const TrialTelemetry::Column& column : TrialTelemetry::kColumns) {
    const obs::JsonValue* cell = trials[1].Find(column.name);
    ASSERT_NE(cell, nullptr) << column.name;
    EXPECT_TRUE(cell->is_string()) << column.name;
    EXPECT_EQ(cell->string, "") << column.name;
  }
}

void CollectSpanRows(const obs::JsonValue& value,
                     std::vector<const obs::JsonValue*>* rows) {
  if (value.Find("name") != nullptr && value.Find("count") != nullptr) {
    rows->push_back(&value);
  }
  for (const obs::JsonValue& item : value.array) CollectSpanRows(item, rows);
  for (const auto& [key, item] : value.object) CollectSpanRows(item, rows);
}

// Every span row in the payload (any object with a name and a count) must
// carry that span's true number of ph:"X" events — thread-name metadata,
// flow events and args objects with a "name" key included in the trace.
TEST(RunReportTest, SpanRowsMatchTraceCounts) {
  obs::ReportInputs inputs;
  inputs.trace_json =
      "{\"traceEvents\":[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"tid\":0,"
      "\"args\":{\"name\":\"main\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"tid\":2,"
      "\"args\":{\"name\":\"worker-0\"}},\n"
      "{\"name\":\"pool.task\",\"ph\":\"s\",\"tid\":0,\"ts\":10,\"id\":1},\n"
      "{\"name\":\"pool.task\",\"ph\":\"s\",\"tid\":0,\"ts\":11,\"id\":2},\n"
      "{\"name\":\"pool.task\",\"ph\":\"f\",\"tid\":2,\"ts\":20,\"id\":1},\n"
      "{\"name\":\"rf.fit_trees\",\"ph\":\"X\",\"tid\":2,\"ts\":21,\"dur\":5,"
      "\"args\":{\"name\":\"tree-0\"}},\n"
      "{\"name\":\"pool.task\",\"ph\":\"X\",\"tid\":2,\"ts\":20,\"dur\":10},\n"
      "{\"name\":\"pool.task\",\"ph\":\"f\",\"tid\":2,\"ts\":31,\"id\":2},\n"
      "{\"name\":\"pool.task\",\"ph\":\"X\",\"tid\":2,\"ts\":31,\"dur\":10},\n"
      "{\"name\":\"features.generate_pairs\",\"ph\":\"X\",\"tid\":0,"
      "\"ts\":0,\"dur\":50}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  const std::map<std::string, double> true_counts = {
      {"pool.task", 2}, {"rf.fit_trees", 1}, {"features.generate_pairs", 1}};

  obs::JsonValue payload = Payload(obs::BuildRunReportHtml(inputs));
  std::vector<const obs::JsonValue*> rows;
  CollectSpanRows(payload, &rows);
  std::map<std::string, int> seen;
  for (const obs::JsonValue* row : rows) {
    const std::string& name = row->Find("name")->string;
    EXPECT_NE(name, "thread_name");
    auto truth = true_counts.find(name);
    if (truth == true_counts.end()) {
      ADD_FAILURE() << "span row '" << name << "' is not a span in the trace";
      continue;
    }
    EXPECT_EQ(row->Find("count")->number, truth->second) << name;
    ++seen[name];
  }
  for (const auto& [name, count] : true_counts) {
    EXPECT_GT(seen[name], 0) << "no span row for " << name;
  }
}

TEST(RunReportTest, MinimalTrajectoryOnlyReportStillBuilds) {
  obs::ReportInputs inputs;
  inputs.trajectory_csv = SerializeTrajectoryCsv({});
  std::string html = obs::BuildRunReportHtml(inputs);
  ASSERT_FALSE(html.empty());
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

}  // namespace
}  // namespace autoem
