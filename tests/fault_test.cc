#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "automl/config_io.h"
#include "automl/evaluator.h"
#include "automl/search_space.h"
#include "automl/smac.h"
#include "common/rng.h"
#include "common/timer.h"
#include "fault/cancel.h"
#include "fault/failpoint.h"
#include "obs/obs.h"

// The abort-action death test forks; under TSan that deadlocks, so it
// self-skips (the tsan preset also filters it out).
#if defined(__SANITIZE_THREAD__)
#define AUTOEM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AUTOEM_TSAN 1
#endif
#endif
#ifndef AUTOEM_TSAN
#define AUTOEM_TSAN 0
#endif

namespace autoem {
namespace {

using fault::CancelToken;
using fault::FailpointRegistry;
using fault::FailpointSpec;

// Every test leaves the process-wide registry clean.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

Status FunctionWithFailpoint() {
  AUTOEM_FAILPOINT("fault_test.site");
  return Status::OK();
}

TEST_F(FailpointTest, UnarmedSiteIsOk) {
  EXPECT_TRUE(FunctionWithFailpoint().ok());
}

TEST_F(FailpointTest, ArmedErrorFiresAndDisarmRestores) {
  FailpointRegistry::Global().Arm("fault_test.site", FailpointSpec::Error());
  Status st = FunctionWithFailpoint();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("fault_test.site"), std::string::npos);
  FailpointRegistry::Global().Disarm("fault_test.site");
  EXPECT_TRUE(FunctionWithFailpoint().ok());
}

TEST_F(FailpointTest, CustomCodeAndMessage) {
  FailpointRegistry::Global().Arm(
      "fault_test.site", FailpointSpec::Error(StatusCode::kIOError, "disk"));
  Status st = FunctionWithFailpoint();
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.message(), "disk");
}

TEST_F(FailpointTest, SkipPassesThroughBeforeFiring) {
  FailpointSpec spec = FailpointSpec::Error();
  spec.skip = 2;
  FailpointRegistry::Global().Arm("fault_test.site", spec);
  EXPECT_TRUE(FunctionWithFailpoint().ok());
  EXPECT_TRUE(FunctionWithFailpoint().ok());
  EXPECT_FALSE(FunctionWithFailpoint().ok());
}

TEST_F(FailpointTest, MaxFiresSpendsTheSpec) {
  FailpointSpec spec = FailpointSpec::Error();
  spec.max_fires = 1;
  FailpointRegistry::Global().Arm("fault_test.site", spec);
  EXPECT_FALSE(FunctionWithFailpoint().ok());
  EXPECT_TRUE(FunctionWithFailpoint().ok());
  EXPECT_EQ(FailpointRegistry::Global().HitCount("fault_test.site"), 2u);
}

TEST_F(FailpointTest, SleepDelaysThenContinues) {
  FailpointRegistry::Global().Arm("fault_test.site",
                                  FailpointSpec::Sleep(30));
  Stopwatch timer;
  EXPECT_TRUE(FunctionWithFailpoint().ok());
  EXPECT_GE(timer.ElapsedMillis(), 25.0);
}

TEST_F(FailpointTest, BadAllocThrows) {
  FailpointRegistry::Global().Arm("fault_test.site",
                                  FailpointSpec::BadAlloc());
  EXPECT_THROW((void)FunctionWithFailpoint(), std::bad_alloc);
}

TEST_F(FailpointTest, SitesEnumeratesExecutedSites) {
  (void)FunctionWithFailpoint();
  auto sites = FailpointRegistry::Global().Sites();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "fault_test.site"),
            sites.end());
}

TEST_F(FailpointTest, ArmFromSpecParsesTheEnvFormat) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("fault_test.site=sleep:20,fault_test.b=error,"
                               "fault_test.c=io_error")
                  .ok());
  Stopwatch timer;
  EXPECT_TRUE(FunctionWithFailpoint().ok());  // sleep action continues OK
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
}

TEST_F(FailpointTest, ArmFromSpecRejectsMalformedEntries) {
  EXPECT_FALSE(FailpointRegistry::Global().ArmFromSpec("no-equals").ok());
  EXPECT_FALSE(FailpointRegistry::Global().ArmFromSpec("a=unknown").ok());
  EXPECT_FALSE(FailpointRegistry::Global().ArmFromSpec("a=sleep:xyz").ok());
  // The whole argument is one int of at least 1 ms.
  EXPECT_FALSE(FailpointRegistry::Global().ArmFromSpec("a=sleep:5ms").ok());
  EXPECT_FALSE(FailpointRegistry::Global().ArmFromSpec("a=sleep:2.5").ok());
  EXPECT_FALSE(
      FailpointRegistry::Global().ArmFromSpec("a=sleep:99999999999").ok());
  EXPECT_TRUE(FailpointRegistry::Global().ArmFromSpec("a=sleep:5").ok());
}

#if !AUTOEM_TSAN
using FailpointDeathTest = FailpointTest;
TEST_F(FailpointDeathTest, AbortActionKillsTheProcess) {
  EXPECT_DEATH(
      {
        FailpointRegistry::Global().Arm("fault_test.site",
                                        FailpointSpec::Abort());
        (void)FunctionWithFailpoint();
      },
      "");
}
#endif

// ---- CancelToken ---------------------------------------------------------------

TEST(CancelTokenTest, DefaultIsDisabled) {
  CancelToken token;
  EXPECT_FALSE(token.enabled());
  EXPECT_FALSE(token.Cancelled());
  EXPECT_TRUE(token.Check("x").ok());
  token.Cancel();  // no-op on a disabled token
  EXPECT_FALSE(token.Cancelled());
}

TEST(CancelTokenTest, ManualCancelIsSharedAcrossCopies) {
  CancelToken token = CancelToken::Manual();
  CancelToken copy = token;
  EXPECT_FALSE(copy.Cancelled());
  token.Cancel();
  EXPECT_TRUE(copy.Cancelled());
  Status st = copy.Check("stage");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("stage"), std::string::npos);
}

TEST(CancelTokenTest, DeadlineExpires) {
  CancelToken token = CancelToken::WithDeadline(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.Check("x").code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FarDeadlineStaysLive) {
  CancelToken token = CancelToken::WithDeadline(3600.0);
  EXPECT_FALSE(token.Cancelled());
}

// ---- score validation -----------------------------------------------------------

TEST(ValidateTrialScoreTest, FiniteOkNonFiniteNamesConfig) {
  Configuration config;
  config["classifier:__choice__"] = "random_forest";
  EXPECT_TRUE(ValidateTrialScore(0.5, config).ok());
  EXPECT_TRUE(ValidateTrialScore(0.0, config).ok());
  Status nan_st =
      ValidateTrialScore(std::numeric_limits<double>::quiet_NaN(), config);
  EXPECT_EQ(nan_st.code(), StatusCode::kInternal);
  Status inf_st =
      ValidateTrialScore(std::numeric_limits<double>::infinity(), config);
  EXPECT_EQ(inf_st.code(), StatusCode::kInternal);
}

// ---- evaluator quarantine -------------------------------------------------------

Dataset MakeEmLikeData(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  const size_t dims = 8;
  d.X = Matrix(n, dims);
  d.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.3) ? 1 : 0;
    d.y[i] = label;
    for (size_t c = 0; c < dims; ++c) {
      double center = (c < dims / 2 && label == 1) ? 1.2 : 0.0;
      d.X.At(i, c) = rng.Normal(center, 1.0);
    }
  }
  for (size_t c = 0; c < dims; ++c) {
    d.feature_names.push_back("f" + std::to_string(c));
  }
  return d;
}

class EvaluatorFaultTest : public FailpointTest {};

TEST_F(EvaluatorFaultTest, ErrorTrialIsQuarantinedWithWorstScore) {
  HoldoutEvaluator evaluator(MakeEmLikeData(80, 1), MakeEmLikeData(40, 2));
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  Rng rng(3);
  Configuration config = space.Sample(&rng);

  FailpointRegistry::Global().Arm("evaluator.fit", FailpointSpec::Error());
  EvalRecord record = evaluator.Evaluate(config);
  EXPECT_EQ(record.failure, TrialFailure::kError);
  EXPECT_DOUBLE_EQ(record.valid_f1, 0.0);
  EXPECT_DOUBLE_EQ(record.test_f1, -1.0);
  EXPECT_FALSE(record.failure_message.empty());

  FailpointRegistry::Global().DisarmAll();
  EvalRecord clean = evaluator.Evaluate(config);
  EXPECT_EQ(clean.failure, TrialFailure::kNone);
}

TEST_F(EvaluatorFaultTest, BadAllocTrialIsQuarantinedNotFatal) {
  HoldoutEvaluator evaluator(MakeEmLikeData(80, 4), MakeEmLikeData(40, 5));
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  Rng rng(6);
  FailpointRegistry::Global().Arm("evaluator.fit", FailpointSpec::BadAlloc());
  EvalRecord record = evaluator.Evaluate(space.Sample(&rng));
  EXPECT_EQ(record.failure, TrialFailure::kError);
  EXPECT_NE(record.failure_message.find("out of memory"), std::string::npos);
}

TEST_F(EvaluatorFaultTest, DeadlineProducesTimeoutFailure) {
  HoldoutEvaluator evaluator(MakeEmLikeData(80, 7), MakeEmLikeData(40, 8));
  evaluator.SetMaxTrialSeconds(0.05);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  Rng rng(9);
  // The sleep sits between pipeline fit and the deadline check, so the trial
  // overruns its budget deterministically.
  FailpointRegistry::Global().Arm("evaluator.score",
                                  FailpointSpec::Sleep(200));
  EvalRecord record = evaluator.Evaluate(space.Sample(&rng));
  EXPECT_EQ(record.failure, TrialFailure::kTimeout);
  EXPECT_DOUBLE_EQ(record.valid_f1, 0.0);
}

TEST_F(EvaluatorFaultTest, FailureCountersTrackReasons) {
  auto* errors = obs::MetricsRegistry::Global().GetCounter(
      "automl.trials_failed.error");
  auto* timeouts = obs::MetricsRegistry::Global().GetCounter(
      "automl.trials_failed.timeout");
  uint64_t errors_before = errors->Total();
  uint64_t timeouts_before = timeouts->Total();

  HoldoutEvaluator evaluator(MakeEmLikeData(80, 10), MakeEmLikeData(40, 11));
  evaluator.SetMaxTrialSeconds(0.05);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  Rng rng(12);

  FailpointRegistry::Global().Arm("evaluator.fit", FailpointSpec::Error());
  evaluator.Evaluate(space.Sample(&rng));
  FailpointRegistry::Global().DisarmAll();
  FailpointRegistry::Global().Arm("evaluator.score",
                                  FailpointSpec::Sleep(200));
  evaluator.Evaluate(space.Sample(&rng));

  EXPECT_EQ(errors->Total(), errors_before + 1);
  EXPECT_EQ(timeouts->Total(), timeouts_before + 1);
}

// ---- search-level quarantine ----------------------------------------------------

SearchOptions SmallSearch(uint64_t seed, int evals = 4) {
  SearchOptions options;
  options.max_evaluations = evals;
  options.seed = seed;
  return options;
}

TEST_F(EvaluatorFaultTest, SearchSurvivesEveryTrialFailing) {
  HoldoutEvaluator evaluator(MakeEmLikeData(80, 13), MakeEmLikeData(40, 14));
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  FailpointRegistry::Global().Arm("evaluator.fit", FailpointSpec::Error());
  auto outcome = RandomSearch(space, &evaluator, SmallSearch(15));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->trajectory.size(), 4u);
  EXPECT_EQ(outcome->trials_failed, 4u);
  for (const EvalRecord& r : outcome->trajectory) {
    EXPECT_EQ(r.failure, TrialFailure::kError);
  }
  // Imputed worst scores must never be promoted to incumbent: with zero
  // successful trials there is no best configuration.
  EXPECT_TRUE(outcome->best_config.empty());
}

TEST_F(EvaluatorFaultTest, FailedConfigIsNeverReproposed) {
  HoldoutEvaluator evaluator(MakeEmLikeData(80, 16), MakeEmLikeData(40, 17));
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  // Only the first trial fails; its hash must not reappear later.
  FailpointSpec spec = FailpointSpec::Error();
  spec.max_fires = 1;
  FailpointRegistry::Global().Arm("evaluator.fit", spec);
  auto outcome = RandomSearch(space, &evaluator, SmallSearch(18, 8));
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->trajectory.size(), 8u);
  EXPECT_EQ(outcome->trajectory[0].failure, TrialFailure::kError);
  uint64_t failed_hash = ConfigurationHash(outcome->trajectory[0].config);
  for (size_t i = 1; i < outcome->trajectory.size(); ++i) {
    EXPECT_NE(ConfigurationHash(outcome->trajectory[i].config), failed_hash)
        << "quarantined config re-proposed at trial " << i;
  }
}

TEST_F(EvaluatorFaultTest, QuarantineDoesNotPerturbCleanRngStream) {
  // A run where one trial fails must propose the same configurations as a
  // clean run for all trials before the failure — and the clean run must be
  // byte-stable whether or not the quarantine machinery is linked in.
  Dataset train = MakeEmLikeData(80, 19);
  Dataset valid = MakeEmLikeData(40, 20);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);

  HoldoutEvaluator e1(train, valid);
  auto clean = RandomSearch(space, &e1, SmallSearch(21, 5));
  ASSERT_TRUE(clean.ok());

  FailpointSpec spec = FailpointSpec::Error();
  spec.skip = 2;  // trials 0,1 clean; trial 2 fails
  spec.max_fires = 1;
  FailpointRegistry::Global().Arm("evaluator.fit", spec);
  HoldoutEvaluator e2(train, valid);
  auto faulted = RandomSearch(space, &e2, SmallSearch(21, 5));
  ASSERT_TRUE(faulted.ok());

  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ConfigurationHash(clean->trajectory[i].config),
              ConfigurationHash(faulted->trajectory[i].config))
        << "proposal diverged at trial " << i;
  }
  EXPECT_EQ(faulted->trajectory[2].failure, TrialFailure::kError);
}

// ---- arm every registered site --------------------------------------------------

// The tentpole's whole-stack proof: run a search once to register every
// failpoint site on its path, then arm each site in turn and show the search
// either completes with quarantined trials or fails with a clean Status —
// never a crash, never a hang.
TEST_F(EvaluatorFaultTest, EverySiteDegradesCleanly) {
  Dataset train = MakeEmLikeData(80, 22);
  Dataset valid = MakeEmLikeData(40, 23);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  std::string ckpt =
      ::testing::TempDir() + "/autoem_fault_every_site.aemk";

  auto run_search = [&](uint64_t seed) {
    HoldoutEvaluator evaluator(train, valid);
    SmacOptions options;
    options.base = SmallSearch(seed, 5);
    options.base.checkpoint.path = ckpt;
    options.base.checkpoint.every_n_trials = 1;
    options.n_init = 2;
    options.n_candidates = 10;
    return SmacSearch(space, &evaluator, options);
  };

  // Registration pass (also exercises checkpoint.write / io.atomic_write).
  std::remove(ckpt.c_str());
  ASSERT_TRUE(run_search(31).ok());

  auto sites = FailpointRegistry::Global().Sites();
  ASSERT_FALSE(sites.empty());
  for (const std::string& site : sites) {
    SCOPED_TRACE("armed site: " + site);
    FailpointRegistry::Global().DisarmAll();
    FailpointRegistry::Global().Arm(site, FailpointSpec::Error());
    std::remove(ckpt.c_str());
    auto outcome = run_search(32);
    if (outcome.ok()) {
      EXPECT_EQ(outcome->trajectory.size(), 5u);
    }
    // A non-OK outcome (e.g. an armed checkpoint.read on resume paths) is a
    // clean failure; reaching this line at all is the pass condition.
  }
  FailpointRegistry::Global().DisarmAll();
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace autoem
