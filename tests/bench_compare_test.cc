// Tests for the bench_compare engine behind the CI perf-gate: parsing the
// standardized `--json-out` artifacts, min-merging repeated runs, and the
// noise-banded verdict logic. The acceptance contract is sharp — identical
// inputs must pass, a 20% synthetic slowdown must fail at the default ±8%
// band, and a gated case that silently disappears must fail too.
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "tools/bench_compare_lib.h"

namespace autoem {
namespace tools {
namespace {

// A minimal artifact in the schema bench_util.h emits.
std::string Artifact(double batched_s, double serial_s) {
  std::string json = "{\"meta\":{\"git_sha\":\"abc123\",\"cpu_model\":"
                     "\"TestCPU\",\"threads\":4},\"cases\":[";
  json += "{\"name\":\"score_batched\",\"seconds\":" +
          std::to_string(batched_s) + "},";
  json += "{\"name\":\"score_serial\",\"seconds\":" +
          std::to_string(serial_s) + "}";
  json += "]}";
  return json;
}

BenchFile MustParse(const std::string& text) {
  auto parsed = ParseBenchJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

TEST(BenchCompareParseTest, ReadsMetaAndCases) {
  BenchFile file = MustParse(Artifact(0.5, 1.0));
  EXPECT_EQ(file.meta.at("git_sha"), "abc123");
  EXPECT_EQ(file.meta.at("cpu_model"), "TestCPU");
  EXPECT_EQ(file.meta.at("threads"), "4");
  ASSERT_EQ(file.cases.size(), 2u);
  EXPECT_DOUBLE_EQ(file.cases.at("score_batched").seconds, 0.5);
  EXPECT_DOUBLE_EQ(file.cases.at("score_serial").seconds, 1.0);
}

TEST(BenchCompareParseTest, RejectsMalformedJson) {
  EXPECT_FALSE(ParseBenchJson("{\"cases\":[").ok());
  EXPECT_FALSE(ParseBenchJson("not json at all").ok());
  EXPECT_FALSE(ParseBenchJson(Artifact(1, 1) + "trailing").ok());
  // Only RFC 8259 numbers are read: a hex float or an infinity rejects the
  // file rather than being read or skipped.
  for (const char* seconds : {"0x1p-4", "-inf", "inf", "nan", "+1", "1.",
                              "1e400"}) {
    std::string text = "{\"cases\":[{\"name\":\"a\",\"seconds\":" +
                       std::string(seconds) + "}]}";
    EXPECT_FALSE(ParseBenchJson(text).ok()) << seconds;
  }
}

// A run count beyond int range rejects the file instead of reaching an
// undefined int cast (which made `--merge-out` write a count of 0).
TEST(BenchCompareParseTest, RejectsOutOfRangeRunCount) {
  auto with_runs = [](const std::string& runs, int copies = 1) {
    std::string entry = "{\"name\":\"a\",\"counters\":"
                        "{\"bench_compare.runs\":" +
                        runs + "},\"seconds\":0.5}";
    std::string text = "{\"cases\":[" + entry;
    for (int i = 1; i < copies; ++i) text += "," + entry;
    return text + "]}";
  };
  EXPECT_FALSE(ParseBenchJson(with_runs("1e300")).ok());
  EXPECT_FALSE(ParseBenchJson(with_runs("2147483648")).ok());
  BenchFile file = MustParse(with_runs("2147483647"));
  EXPECT_EQ(file.cases.at("a").runs, 2147483647);
  EXPECT_NE(SerializeBenchFile(file).find("\"bench_compare.runs\":2147483647"),
            std::string::npos);
  // Repeated cases add their run counts, saturating instead of wrapping.
  EXPECT_EQ(MustParse(with_runs("2147483647", 2)).cases.at("a").runs,
            2147483647);
}

TEST(BenchCompareParseTest, CaseWithoutSecondsIsDimensionless) {
  BenchFile file = MustParse(
      "{\"cases\":[{\"name\":\"fig.f1\",\"counters\":{\"f1\":0.92}}]}");
  ASSERT_EQ(file.cases.count("fig.f1"), 1u);
  EXPECT_EQ(file.cases.at("fig.f1").seconds, 0.0);
}

TEST(BenchCompareMergeTest, SerializeRoundTripsAndMinMerges) {
  BenchFile run1 = MustParse(Artifact(0.50, 1.10));
  BenchFile run2 = MustParse(Artifact(0.48, 1.30));  // best batched run
  // Min-merge happens in LoadBenchFiles (file-level); emulate it by merging
  // through serialization: the serialized form of each must re-parse to the
  // same stats.
  BenchFile reparsed = MustParse(SerializeBenchFile(run1));
  EXPECT_DOUBLE_EQ(reparsed.cases.at("score_batched").seconds, 0.50);
  EXPECT_DOUBLE_EQ(reparsed.cases.at("score_serial").seconds, 1.10);
  EXPECT_EQ(reparsed.meta.at("cpu_model"), "TestCPU");

  // CompareBench against a min-merged current: take min by hand.
  BenchFile merged;
  merged.meta = run1.meta;
  for (const auto& [name, stat] : run1.cases) {
    BenchCaseStat best = stat;
    auto other = run2.cases.find(name);
    if (other != run2.cases.end() && other->second.seconds < best.seconds) {
      best.seconds = other->second.seconds;
    }
    best.runs = 2;
    merged.cases[name] = best;
  }
  EXPECT_DOUBLE_EQ(merged.cases.at("score_batched").seconds, 0.48);
  EXPECT_DOUBLE_EQ(merged.cases.at("score_serial").seconds, 1.10);
}

TEST(BenchCompareVerdictTest, IdenticalInputsPass) {
  BenchFile file = MustParse(Artifact(0.5, 1.0));
  CompareReport report = CompareBench(file, file, CompareOptions{});
  EXPECT_FALSE(report.Failed());
  EXPECT_EQ(report.regressed, 0);
  EXPECT_EQ(report.ok, 2);
  for (const CaseComparison& comparison : report.cases) {
    EXPECT_EQ(comparison.verdict, Verdict::kOk) << comparison.name;
    EXPECT_DOUBLE_EQ(comparison.ratio, 1.0) << comparison.name;
  }
}

TEST(BenchCompareVerdictTest, TwentyPercentSlowdownFailsAtDefaultNoise) {
  BenchFile baseline = MustParse(Artifact(0.5, 1.0));
  BenchFile current = MustParse(Artifact(0.5 * 1.20, 1.0));
  CompareOptions options;  // noise = 0.08
  CompareReport report = CompareBench(baseline, current, options);
  EXPECT_TRUE(report.Failed());
  EXPECT_EQ(report.regressed, 1);
  EXPECT_EQ(report.ok, 1);
  // Worst ratio sorts first so the CI log leads with the regression.
  ASSERT_FALSE(report.cases.empty());
  EXPECT_EQ(report.cases.front().name, "score_batched");
  EXPECT_EQ(report.cases.front().verdict, Verdict::kRegressed);
  EXPECT_NEAR(report.cases.front().ratio, 1.20, 1e-9);
}

TEST(BenchCompareVerdictTest, SlowdownWithinNoiseBandPasses) {
  BenchFile baseline = MustParse(Artifact(0.5, 1.0));
  BenchFile current = MustParse(Artifact(0.5 * 1.05, 1.0 * 0.95));
  CompareReport report = CompareBench(baseline, current, CompareOptions{});
  EXPECT_FALSE(report.Failed());
  EXPECT_EQ(report.ok, 2);
}

TEST(BenchCompareVerdictTest, BigSpeedupIsImprovedNotFailed) {
  BenchFile baseline = MustParse(Artifact(1.0, 1.0));
  BenchFile current = MustParse(Artifact(0.5, 1.0));
  CompareReport report = CompareBench(baseline, current, CompareOptions{});
  EXPECT_FALSE(report.Failed());
  EXPECT_EQ(report.improved, 1);
}

TEST(BenchCompareVerdictTest, MissingBaselineCaseFailsLoudly) {
  BenchFile baseline = MustParse(Artifact(0.5, 1.0));
  BenchFile current = MustParse(
      "{\"meta\":{},\"cases\":[{\"name\":\"score_batched\","
      "\"seconds\":0.5}]}");
  CompareReport report = CompareBench(baseline, current, CompareOptions{});
  EXPECT_TRUE(report.Failed()) << "lost coverage must gate";
  EXPECT_EQ(report.missing_in_current, 1);
}

TEST(BenchCompareVerdictTest, NewCaseDoesNotFail) {
  BenchFile baseline = MustParse(
      "{\"meta\":{},\"cases\":[{\"name\":\"score_batched\","
      "\"seconds\":0.5}]}");
  BenchFile current = MustParse(Artifact(0.5, 1.0));
  CompareReport report = CompareBench(baseline, current, CompareOptions{});
  EXPECT_FALSE(report.Failed());
  EXPECT_EQ(report.added, 1);
}

TEST(BenchCompareVerdictTest, SubMicrosecondCasesAreSkipped) {
  // A 40ns guard bench doubling is timer noise, not a regression.
  BenchFile baseline = MustParse(
      "{\"cases\":[{\"name\":\"guard_ns\",\"seconds\":4.0e-8}]}");
  BenchFile current = MustParse(
      "{\"cases\":[{\"name\":\"guard_ns\",\"seconds\":8.0e-8}]}");
  CompareReport report = CompareBench(baseline, current, CompareOptions{});
  EXPECT_FALSE(report.Failed());
  EXPECT_EQ(report.skipped, 1);
}

TEST(BenchCompareReportTest, JsonAndTextCarryTheVerdict) {
  BenchFile baseline = MustParse(Artifact(0.5, 1.0));
  BenchFile current = MustParse(Artifact(0.70, 1.0));
  CompareReport report = CompareBench(baseline, current, CompareOptions{});
  ASSERT_TRUE(report.Failed());

  std::string json = CompareReportJson(report);
  EXPECT_NE(json.find("\"failed\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"regressed\""), std::string::npos) << json;
  EXPECT_NE(json.find("score_batched"), std::string::npos) << json;

  std::string text = CompareReportText(report);
  EXPECT_NE(text.find("FAIL"), std::string::npos) << text;
  EXPECT_NE(text.find("score_batched"), std::string::npos) << text;
}

}  // namespace
}  // namespace tools
}  // namespace autoem
