// Tests for the autoem::obs subsystem: logger, metrics registry, span
// tracer, session plumbing — and the invariant everything else hinges on:
// instrumentation never changes computed results.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "automl/automl_em.h"
#include "automl/config_io.h"
#include "automl/explain.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace autoem {
namespace {

bool IsValidJson(const std::string& text) {
  return obs::ParseJson(text).ok();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---- JSON reader ----------------------------------------------------------

// The accept/reject table of obs::ParseJson, the one reader behind every
// JSON consumer (trace-analyze, report, bench_compare, these tests).
TEST(ParseJsonTest, AcceptsAndRejects) {
  auto nested = [](size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  struct Row {
    std::string text;
    bool ok;
  };
  const Row rows[] = {
      {"{}", true},
      {"{\"a\":[1,2.5,-3e-2],\"b\":{\"c\":null}}", true},
      {"[\"\\u00e9\\n\",true,false]", true},
      {"{", false},
      {"{\"a\":}", false},
      {"{\"a\":1,}", false},
      {"[1 2]", false},
      {"\"unterminated", false},
      {"nan", false},
      // Numbers: RFC 8259 grammar only, and they must fit a double.
      {"0", true},
      {"-0", true},
      {"1e300", true},
      {"-1.5E+3", true},
      {"5e-324", true},
      {"+1", false},
      {"007", false},
      {"-01", false},
      {"0x10", false},
      {"0x1p-4", false},
      {"1.", false},
      {".5", false},
      {"1e", false},
      {"1e5e5", false},
      {"1e+", false},
      {"-", false},
      {"inf", false},
      {"-inf", false},
      {"Infinity", false},
      {"NaN", false},
      {"1e400", false},
      {"-1e400", false},
      {"1e-400", false},
      // Whitespace is exactly space, tab, LF, CR.
      {" \t\r\n[ 1 , 2 ]\n", true},
      {"\v[]", false},
      {"\f[]", false},
      {"[]x", false},
      {"", false},
      // Strings.
      {"\"\\ud83d\\ude00\"", true},
      {"\"caf\xc3\xa9 \xff\"", true},
      {"\"\\/\\b\\f\\r\\t\"", true},
      {"\"\\ud800\"", false},
      {"\"\\udc00\"", false},
      {"\"\\ud800\\u0041\"", false},
      {"\"\\u12g4\"", false},
      {"\"\\x41\"", false},
      {"\"a\x01" "b\"", false},
      {std::string("\"a\0b\"", 5), false},
      {"{1:2}", false},
      {"{\"a\" 1}", false},
      {"tru", false},
      // Nesting is capped at 64 arrays/objects.
      {nested(64), true},
      {nested(65), false},
      {nested(200000), false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(obs::ParseJson(row.text).ok(), row.ok)
        << "input: " << row.text.substr(0, 60);
  }
}

TEST(ParseJsonTest, DecodesValues) {
  auto doc = obs::ParseJson(
      "{\"n\":-3e-2,\"s\":\"\\u00e9\\ud83d\\ude00\xff\",\"b\":true,"
      "\"a\":[null],\"k\":1,\"k\":2}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Find("n")->number, -0.03);
  // \u escapes decode to UTF-8; raw bytes >= 0x80 pass through unchanged.
  EXPECT_EQ(doc->Find("s")->string, "\xc3\xa9\xf0\x9f\x98\x80\xff");
  EXPECT_TRUE(doc->Find("b")->boolean);
  ASSERT_EQ(doc->Find("a")->array.size(), 1u);
  EXPECT_EQ(doc->Find("a")->array[0].type, obs::JsonValue::Type::kNull);
  EXPECT_EQ(doc->Find("k")->number, 2.0);  // the last duplicate wins
  EXPECT_EQ(doc->Find("missing"), nullptr);

  auto bad = obs::ParseJson("[1,]");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("offset 3"), std::string::npos)
      << bad.status().message();
}

// ---- metrics --------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterSumsExactly) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  uint64_t before = counter->Total();

  constexpr size_t kIncrements = 100000;
  ThreadPool pool(8);
  pool.ParallelFor(kIncrements, [&](size_t i) { counter->Add(i % 3 + 1); });

  uint64_t expected = 0;
  for (size_t i = 0; i < kIncrements; ++i) expected += i % 3 + 1;
  EXPECT_EQ(counter->Total() - before, expected);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "test.bounds_hist", {1.0, 2.0, 5.0});
  // Boundary semantics: bucket i counts values <= bounds[i] (Prometheus
  // `le`); values above the last bound land in the overflow bucket.
  hist->Observe(0.5);   // bucket 0
  hist->Observe(1.0);   // bucket 0 (inclusive upper bound)
  hist->Observe(1.001); // bucket 1
  hist->Observe(2.0);   // bucket 1
  hist->Observe(5.0);   // bucket 2
  hist->Observe(100.0); // overflow

  obs::Histogram::Snapshot snap = hist->Snap();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 100.0);
}

TEST(MetricsTest, HistogramConcurrentObservationsAllLand) {
  obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "test.concurrent_hist", {10.0, 100.0});
  uint64_t before = hist->Snap().count;
  constexpr size_t kObs = 50000;
  ThreadPool pool(8);
  pool.ParallelFor(kObs, [&](size_t i) {
    hist->Observe(static_cast<double>(i % 200));
  });
  EXPECT_EQ(hist->Snap().count - before, kObs);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("test.gauge");
  gauge->Set(0.25);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.25);
  gauge->Set(-3.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), -3.5);
}

TEST(MetricsTest, RegistryHandlesAreStableAndShared) {
  obs::Counter* a = obs::MetricsRegistry::Global().GetCounter("test.stable");
  obs::Counter* b = obs::MetricsRegistry::Global().GetCounter("test.stable");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, SnapshotJsonIsParseable) {
  obs::MetricsRegistry::Global().GetCounter("test.snap_counter")->Add(3);
  obs::MetricsRegistry::Global().GetGauge("test.snap_gauge")->Set(1.5);
  obs::MetricsRegistry::Global()
      .GetHistogram("test.snap_hist")
      ->Observe(4.2);
  std::string json = obs::MetricsRegistry::Global().SnapshotJsonLine(0.0);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.snap_counter\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // NaN/inf must never leak into the JSON (they are not valid JSON tokens).
  obs::MetricsRegistry::Global()
      .GetGauge("test.snap_nan")
      ->Set(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(
      IsValidJson(obs::MetricsRegistry::Global().SnapshotJsonLine(0.0)));
}

// ---- logging --------------------------------------------------------------

TEST(LogTest, ParseLogLevel) {
  obs::LogLevel level = obs::LogLevel::kOff;
  EXPECT_TRUE(obs::ParseLogLevel("info", &level));
  EXPECT_EQ(level, obs::LogLevel::kInfo);
  EXPECT_TRUE(obs::ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::ParseLogLevel("warning", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarn);  // untouched on failure
}

TEST(LogTest, DisabledLevelSkipsArgumentEvaluation) {
  obs::LogLevel saved = obs::MinLogLevel();
  obs::SetMinLogLevel(obs::LogLevel::kWarn);
  int evaluations = 0;
  auto touch = [&]() {
    ++evaluations;
    return 42;
  };
  AUTOEM_LOG(DEBUG) << "value " << touch();
  EXPECT_EQ(evaluations, 0);
  obs::SetMinLogLevel(saved);
}

TEST(LogDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ AUTOEM_CHECK_MSG(1 == 2, "intentional failure"); },
               "intentional failure");
}

TEST(LogTest, DcheckCompilesAndPasses) {
  AUTOEM_DCHECK(1 + 1 == 2);  // must compile in both build modes
#ifdef NDEBUG
  // In release builds the condition must not be evaluated.
  int evaluations = 0;
  auto touch = [&]() {
    ++evaluations;
    return false;
  };
  AUTOEM_DCHECK(touch());
  EXPECT_EQ(evaluations, 0);
#endif
}

// ---- tracing --------------------------------------------------------------

TEST(TraceTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(obs::TracingEnabled());
  size_t before = obs::TraceEventCount();
  {
    obs::Span span("test.disabled");
    EXPECT_FALSE(span.active());
    span.Arg("k", 1.0);  // must be a safe no-op
  }
  EXPECT_EQ(obs::TraceEventCount(), before);
}

TEST(TraceTest, SpansNestAndJsonParses) {
  obs::StartTracing();
  {
    obs::Span outer("test.outer");
    ASSERT_TRUE(outer.active());
    outer.Arg("trial", 3);
    outer.Arg("f1", 0.875);
    outer.Arg("name", std::string("a \"quoted\" label"));
    {
      obs::Span inner("test.inner");
      AUTOEM_SPAN("test.macro");
    }
  }
  obs::StopTracing();

  std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 3u);

  const obs::TraceEvent* outer_ev = nullptr;
  const obs::TraceEvent* inner_ev = nullptr;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "test.outer") == 0) outer_ev = &e;
    if (std::strcmp(e.name, "test.inner") == 0) inner_ev = &e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Same thread, and the inner span's [start, end] sits inside the outer's.
  EXPECT_EQ(outer_ev->tid, inner_ev->tid);
  EXPECT_LE(outer_ev->ts_us, inner_ev->ts_us);
  EXPECT_GE(outer_ev->ts_us + outer_ev->dur_us,
            inner_ev->ts_us + inner_ev->dur_us);

  std::string json = obs::TraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("test.outer"), std::string::npos);
  EXPECT_NE(json.find("\"trial\":3"), std::string::npos);
}

TEST(TraceTest, WorkerThreadSpansCarryDistinctTids) {
  obs::StartTracing();
  {
    std::atomic<int> done{0};
    ThreadPool pool(4);
    pool.ParallelFor(
        256,
        [&](size_t) {
          done.fetch_add(1, std::memory_order_relaxed);
        },
        "test.chunk");
    EXPECT_EQ(done.load(), 256);
  }
  obs::StopTracing();

  std::vector<obs::TraceEvent> events = obs::SnapshotTraceEvents();
  size_t chunk_events = 0;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "test.chunk") == 0) ++chunk_events;
  }
  EXPECT_GT(chunk_events, 0u);
  EXPECT_TRUE(IsValidJson(obs::TraceJson()));
}

TEST(TraceTest, WriteTraceProducesLoadableFile) {
  obs::StartTracing();
  { AUTOEM_SPAN("test.file_span"); }
  obs::StopTracing();
  std::string path = TempPath("obs_test_trace.json");
  ASSERT_TRUE(obs::WriteTrace(path));
  std::string content = ReadFile(path);
  EXPECT_TRUE(IsValidJson(content)) << content;
  EXPECT_NE(content.find("test.file_span"), std::string::npos);
  std::remove(path.c_str());
}

// ---- ObsOptions / ObsSession ---------------------------------------------

TEST(ObsOptionsTest, ParseObsFlag) {
  obs::ObsOptions opt;
  EXPECT_EQ(opt.metrics_format, "jsonl");
  EXPECT_TRUE(*obs::ParseObsFlag("--log-level=debug", &opt));
  EXPECT_TRUE(*obs::ParseObsFlag("--trace-out=/tmp/t.json", &opt));
  EXPECT_TRUE(*obs::ParseObsFlag("--metrics-out=/tmp/m.json", &opt));
  EXPECT_TRUE(*obs::ParseObsFlag("--metrics-format=openmetrics", &opt));
  EXPECT_TRUE(*obs::ParseObsFlag("--profile-hz=250", &opt));
  EXPECT_TRUE(*obs::ParseObsFlag("--metrics-flush-interval=0.5", &opt));
  EXPECT_EQ(opt.log_level, "debug");
  EXPECT_EQ(opt.trace_path, "/tmp/t.json");
  EXPECT_EQ(opt.metrics_path, "/tmp/m.json");
  EXPECT_EQ(opt.metrics_format, "openmetrics");
  EXPECT_EQ(opt.profile_hz, 250.0);
  EXPECT_EQ(opt.metrics_flush_interval, 0.5);
  EXPECT_FALSE(*obs::ParseObsFlag("--threads=4", &opt));
  EXPECT_FALSE(*obs::ParseObsFlag("--log-level", &opt));  // missing '='
}

// A numeric obs flag is read whole and in autoem_cli's range, and a level or
// format must be one the session knows; a bad value is an error naming the
// flag, distinct from "not an obs flag", and leaves the option as it was.
void ExpectRejected(const std::string& arg) {
  obs::ObsOptions opt;
  auto parsed = obs::ParseObsFlag(arg, &opt);
  ASSERT_FALSE(parsed.ok()) << arg;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << arg;
  const std::string flag = arg.substr(0, arg.find('='));
  EXPECT_TRUE(StartsWith(parsed.status().message(), flag + ": "))
      << parsed.status().message();
  EXPECT_EQ(opt.profile_hz, 0.0) << arg;
  EXPECT_EQ(opt.metrics_flush_interval, 0.0) << arg;
  EXPECT_EQ(opt.log_level, "") << arg;
  EXPECT_EQ(opt.metrics_format, "jsonl") << arg;
}

TEST(ObsOptionsTest, ProfileRateThatIsNotANumberIsRejected) {
  ExpectRejected("--profile-hz=abc");
}

TEST(ObsOptionsTest, ProfileRateWithTrailingTextIsRejected) {
  ExpectRejected("--profile-hz=97Hz");
}

TEST(ObsOptionsTest, EmptyProfileRateIsRejected) {
  ExpectRejected("--profile-hz=");
}

TEST(ObsOptionsTest, ProfileRateBelowOneHertzIsRejected) {
  // A 1e300 s sampling period does not fit the profiler's time_t.
  ExpectRejected("--profile-hz=1e-300");
}

TEST(ObsOptionsTest, ProfileRateAboveTenKilohertzIsRejected) {
  ExpectRejected("--profile-hz=20000");
}

TEST(ObsOptionsTest, NegativeFlushIntervalIsRejected) {
  ExpectRejected("--metrics-flush-interval=-1");
}

TEST(ObsOptionsTest, FlushIntervalThatIsNotFiniteIsRejected) {
  ExpectRejected("--metrics-flush-interval=nan");
  ExpectRejected("--metrics-flush-interval=inf");
}

TEST(ObsOptionsTest, FlushIntervalThatIsNotANumberIsRejected) {
  ExpectRejected("--metrics-flush-interval=5s");
}

TEST(ObsOptionsTest, UnknownLogLevelIsRejected) {
  ExpectRejected("--log-level=verbose");
}

TEST(ObsOptionsTest, MetricsFormatOtherThanJsonlOrOpenMetricsIsRejected) {
  ExpectRejected("--metrics-format=xml");
  ExpectRejected("--metrics-format=json");  // the retired pretty snapshot
}

TEST(ObsSessionTest, WritesTraceAndMetricsOnExit) {
  std::string trace_path = TempPath("obs_session_trace.json");
  std::string metrics_path = TempPath("obs_session_metrics.json");
  {
    obs::ObsOptions opt;
    opt.trace_path = trace_path;
    opt.metrics_path = metrics_path;
    obs::ObsSession session(opt);
    EXPECT_TRUE(obs::TracingEnabled());
    AUTOEM_SPAN("test.session_span");
  }
  EXPECT_FALSE(obs::TracingEnabled());

  std::string trace = ReadFile(trace_path);
  std::string metrics = ReadFile(metrics_path);
  EXPECT_TRUE(IsValidJson(trace)) << trace;
  EXPECT_NE(trace.find("test.session_span"), std::string::npos);
  // Without live flushes the metrics file is one JSON line: the flusher's
  // end-of-run snapshot, which marks itself final.
  ASSERT_FALSE(metrics.empty());
  EXPECT_EQ(metrics.find('\n'), metrics.size() - 1) << metrics;
  EXPECT_TRUE(IsValidJson(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"obs.flush_final\""), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// A second session would restart the tracer and clear the first one's
// trace buffer, so it is a CHECK failure.
TEST(ObsSessionDeathTest, SecondLiveSessionDies) {
  EXPECT_DEATH(
      {
        obs::ObsSession outer{obs::ObsOptions{}};
        obs::ObsSession inner{obs::ObsOptions{}};
      },
      "already live");
}

// ---- instrumentation must not change results ------------------------------

Dataset MakeEmLikeData(size_t n, uint64_t seed, double noise = 1.6) {
  Rng rng(seed);
  Dataset d;
  const size_t dims = 10;
  d.X = Matrix(n, dims);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.25) ? 1 : 0;
    d.y[i] = label;
    for (size_t c = 0; c < dims; ++c) {
      double center = (c < dims / 2 && label == 1) ? 1.0 : 0.0;
      d.X.At(i, c) = rng.Normal(center, noise);
    }
  }
  for (size_t c = 0; c < dims; ++c) {
    d.feature_names.push_back("f" + std::to_string(c));
  }
  return d;
}

AutoMlEmResult MustRunSearch(const Dataset& train, const Dataset& valid,
                             const AutoMlEmOptions& options) {
  auto result = RunAutoMlEm(train, valid, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(ObsDeterminismTest, SearchIsBitIdenticalWithTracingOnAndOff) {
  Dataset train = MakeEmLikeData(160, 21);
  Dataset valid = MakeEmLikeData(80, 22);

  AutoMlEmOptions options;
  options.max_evaluations = 6;
  options.seed = 3;

  AutoMlEmResult off = MustRunSearch(train, valid, options);

  obs::ObsOptions traced;
  traced.trace_path = TempPath("obs_determinism_trace.json");
  AutoMlEmResult on;
  {
    obs::ObsSession session(traced);
    on = MustRunSearch(train, valid, options);
  }

  // The trace was actually produced...
  std::string trace = ReadFile(traced.trace_path);
  EXPECT_TRUE(IsValidJson(trace));
  EXPECT_NE(trace.find("automl.pipeline_eval"), std::string::npos);
  std::remove(traced.trace_path.c_str());

  // ...and had zero effect on the search: identical configs and
  // bit-identical scores, trial by trial.
  ASSERT_EQ(off.trajectory.size(), on.trajectory.size());
  EXPECT_EQ(SerializeConfiguration(off.best_config),
            SerializeConfiguration(on.best_config));
  for (size_t i = 0; i < off.trajectory.size(); ++i) {
    EXPECT_EQ(SerializeConfiguration(off.trajectory[i].config),
              SerializeConfiguration(on.trajectory[i].config))
        << "trial " << i;
    EXPECT_EQ(0, std::memcmp(&off.trajectory[i].valid_f1,
                             &on.trajectory[i].valid_f1, sizeof(double)))
        << "trial " << i;
  }
}

// The session is the metrics file's one writer: a search run inside it
// writes nothing itself, so a metrics path that cannot be written (a
// directory) costs one warning, at the session's end.
TEST(ObsSessionTest, SearchInsideASessionWritesMetricsOnce) {
  obs::ObsOptions opt;
  opt.log_level = "warn";
  opt.metrics_path = TempPath("obs_metrics_dir");
  std::filesystem::create_directories(opt.metrics_path);
  AutoMlEmOptions options;
  options.max_evaluations = 2;
  options.seed = 3;
  testing::internal::CaptureStderr();
  {
    obs::ObsSession session(opt);
    MustRunSearch(MakeEmLikeData(120, 41), MakeEmLikeData(60, 42), options);
  }
  std::string err = testing::internal::GetCapturedStderr();
  size_t failed_writes = 0;
  for (size_t at = err.find("flusher: write to"); at != std::string::npos;
       at = err.find("flusher: write to", at + 1)) {
    ++failed_writes;
  }
  EXPECT_EQ(failed_writes, 1u) << err;
  std::filesystem::remove(opt.metrics_path);
}

TEST(ObsDeterminismTest, EvalRecordsCarryTrialAndElapsed) {
  Dataset train = MakeEmLikeData(120, 31);
  Dataset valid = MakeEmLikeData(60, 32);
  AutoMlEmOptions options;
  options.max_evaluations = 4;
  options.seed = 5;
  AutoMlEmResult result = MustRunSearch(train, valid, options);
  ASSERT_GE(result.trajectory.size(), 2u);
  for (size_t i = 0; i < result.trajectory.size(); ++i) {
    EXPECT_EQ(result.trajectory[i].trial, static_cast<int>(i));
    EXPECT_GE(result.trajectory[i].elapsed_seconds, 0.0);
  }
  // Elapsed is cumulative wall clock: non-decreasing across trials.
  for (size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i].elapsed_seconds,
              result.trajectory[i - 1].elapsed_seconds);
  }
}

// ---- trajectory serialization (Fig. 3 tuning curve) -----------------------

TEST(TrajectoryTest, SerializeTrajectoryCsvFormat) {
  EvalRecord a;
  a.trial = 0;
  a.elapsed_seconds = 1.5;
  a.fit_seconds = 1.25;
  a.valid_f1 = 0.5;
  a.config["model"] = ParamValue(std::string("random_forest"));
  EvalRecord b = a;
  b.trial = 1;
  b.elapsed_seconds = 3.0;
  b.valid_f1 = 0.75;
  b.telemetry = {0.25, -64, 123456, 7, 42, 4242};
  const std::string hash =
      StrFormat("%016llx", static_cast<unsigned long long>(
                               ConfigurationHash(a.config)));

  std::string csv = SerializeTrajectoryCsv({a, b});
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "trial,elapsed_seconds,fit_seconds,valid_f1,test_f1,"
            "best_f1_so_far,config_hash,cpu_seconds,peak_rss_delta_kb,"
            "allocs,profile_samples,pool_wait_micros,pool_busy_micros,"
            "failure");
  // Unmeasured telemetry leaves its six cells empty, never zero.
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "0,1.500000,1.250000,0.5,-1,0.5," + hash + ",,,,,,,ok");
  // Measured telemetry fills them; best_f1_so_far is the running max.
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,3.000000,1.250000,0.75,-1,0.75," + hash +
                      ",0.250000,-64,123456,7,42,4242,ok");
  EXPECT_FALSE(std::getline(in, line) && !line.empty());
}

TEST(TrajectoryTest, ConfigurationHashIsStableAndSensitive) {
  Configuration config;
  config["model"] = ParamValue(std::string("random_forest"));
  config["n_estimators"] = ParamValue(static_cast<int64_t>(100));
  uint64_t h1 = ConfigurationHash(config);
  EXPECT_EQ(h1, ConfigurationHash(config));  // deterministic
  config["n_estimators"] = ParamValue(static_cast<int64_t>(101));
  EXPECT_NE(h1, ConfigurationHash(config));  // sensitive to changes
}

TEST(TrajectoryTest, FormatTuningCurveShapes) {
  std::vector<EvalRecord> trajectory;
  for (int t = 0; t < 10; ++t) {
    EvalRecord r;
    r.trial = t;
    r.elapsed_seconds = t * 0.5;
    r.valid_f1 = 0.1 * t;
    trajectory.push_back(r);
  }
  std::string full = FormatTuningCurve(trajectory);
  EXPECT_EQ(std::count(full.begin(), full.end(), '\n'), 11);  // header + 10
  std::string capped = FormatTuningCurve(trajectory, 4);
  EXPECT_NE(capped.find("elided"), std::string::npos);
  EXPECT_LT(std::count(capped.begin(), capped.end(), '\n'), 11);
  // The last (best) row always survives elision.
  EXPECT_NE(capped.find("0.9000"), std::string::npos);
}

}  // namespace
}  // namespace autoem
