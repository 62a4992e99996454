#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <set>

// GCC 12 emits a known -Wmaybe-uninitialized false positive for
// std::variant destruction at -O2 (GCC PR105593); it trips on the
// stack-constructed Result<int> in these tests.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "common/params.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace autoem {
namespace {

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status Helper(bool fail) {
  if (fail) {
    AUTOEM_RETURN_IF_ERROR(Status::Internal("inner"));
  }
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacroPropagates) {
  EXPECT_TRUE(Helper(false).ok());
  EXPECT_EQ(Helper(true).code(), StatusCode::kInternal);
}

// ---- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformRealRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(RngTest, LogUniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.LogUniform(1e-4, 1e2);
    EXPECT_GE(v, 1e-4);
    EXPECT_LE(v, 1e2);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(4);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(unique.size(), 30u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullPermutation) {
  Rng rng(5);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementOverdraw) {
  Rng rng(51);
  // Asking for more than n must return exactly n distinct indices.
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 50);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 5u);
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng fork = a.Fork();
  // Forked stream should not be identical to the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.UniformInt(0, 1 << 30) != fork.UniformInt(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---- string_util ---------------------------------------------------------------

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Hello World"), "hello world");
  EXPECT_EQ(ToLower("ABC123"), "abc123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  new   york  city ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "new");
  EXPECT_EQ(parts[2], "city");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("classifier:rf:depth", "classifier:"));
  EXPECT_FALSE(StartsWith("clf", "classifier:"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, ParseNumberAcceptsWholeValuesInRange) {
  EXPECT_EQ(*ParseNumber("0", 0, 1024), 0);
  EXPECT_EQ(*ParseNumber("-7", -10, 10), -7);
  EXPECT_EQ(*ParseNumber("2147483647", 1, INT_MAX), INT_MAX);
  EXPECT_EQ(*ParseNumber("18446744073709551615", uint64_t{0}, UINT64_MAX),
            UINT64_MAX);
  EXPECT_EQ(*ParseNumber("0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(*ParseNumber("1e3", 0.0, 1e9), 1000.0);
  EXPECT_EQ(*ParseNumber("1", 0.0, 1.0), 1.0);  // bounds are inclusive
}

TEST(StringUtilTest, ParseNumberRejectsWhatAtoiAndAtofWouldRead) {
  const char* bad_ints[] = {"",   "abc", "5x", " 5", "5 ", "+5",
                            "3.5", "1e3", "0x10", "99999999999"};
  for (const char* s : bad_ints) {
    EXPECT_EQ(ParseNumber(s, INT_MIN, INT_MAX).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << s << "'";
  }
  const char* bad_doubles[] = {"", "abc", "0.5x", "nan", "inf",
                               "-inf", "1e400", " 0.5", "0,5"};
  for (const char* s : bad_doubles) {
    EXPECT_EQ(ParseNumber(s, -1e300, 1e300).status().code(),
              StatusCode::kInvalidArgument)
        << "'" << s << "'";
  }
  // Out of range, at either end and for every type.
  EXPECT_FALSE(ParseNumber("0", 1, INT_MAX).ok());
  EXPECT_FALSE(ParseNumber("1025", 0, 1024).ok());
  EXPECT_FALSE(ParseNumber("-1", uint64_t{0}, UINT64_MAX).ok());
  EXPECT_FALSE(ParseNumber("0", uint64_t{1}, UINT64_MAX).ok());
  EXPECT_FALSE(ParseNumber("1.5", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseNumber("-0.1", 0.0, 1.0).ok());
  EXPECT_NE(ParseNumber("1.5", 0.0, 1.0).status().message().find("1.5"),
            std::string::npos);
}

// ---- params -------------------------------------------------------------------

TEST(ParamValueTest, TypedAccessors) {
  EXPECT_EQ(ParamValue(3).AsInt(), 3);
  EXPECT_DOUBLE_EQ(ParamValue(2.5).AsDouble(), 2.5);
  EXPECT_EQ(ParamValue("gini").AsString(), "gini");
  EXPECT_TRUE(ParamValue(true).AsBool());
}

TEST(ParamValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(ParamValue(3).AsDouble(), 3.0);
  EXPECT_EQ(ParamValue(2.9).AsInt(), 2);
  EXPECT_TRUE(ParamValue("true").AsBool());
  EXPECT_FALSE(ParamValue("false").AsBool());
}

TEST(ParamValueTest, ToStringForms) {
  EXPECT_EQ(ParamValue(3).ToString(), "3");
  EXPECT_EQ(ParamValue("x").ToString(), "'x'");
  EXPECT_EQ(ParamValue(true).ToString(), "true");
}

TEST(ParamMapTest, GettersWithDefaults) {
  ParamMap m;
  m["a"] = 5;
  m["b"] = "hello";
  EXPECT_EQ(GetInt(m, "a", 0), 5);
  EXPECT_EQ(GetInt(m, "missing", 9), 9);
  EXPECT_EQ(GetString(m, "b", ""), "hello");
  EXPECT_DOUBLE_EQ(GetDouble(m, "missing", 1.5), 1.5);
  EXPECT_TRUE(GetBool(m, "missing", true));
}

// ---- thread pool -----------------------------------------------------------------

TEST(ThreadPoolTest, InlineModeRunsTasks) {
  ThreadPool pool(0);
  int counter = 0;
  pool.Submit([&] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(pool.num_threads(), 0u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&] { counter++; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 500);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds());
}

}  // namespace
}  // namespace autoem
