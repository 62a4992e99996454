// Model persistence (src/io): the serialization substrate, per-component
// fitted-state round-trips, the versioned container, and the end-to-end
// guarantee — a matcher loaded from disk scores pairs *bit-identically*
// (memcmp on the raw doubles) to the instance that was saved, at any thread
// count and chunk size. The corruption half goes the other way: flipped
// bytes, truncation at any offset, wrong magic, and wrong format versions
// must all degrade to a clean non-OK Status, never UB.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "automl/config_io.h"
#include "automl/pipeline.h"
#include "automl/search_space.h"
#include "common/rng.h"
#include "datagen/benchmark_gen.h"
#include "em/matcher.h"
#include "features/feature_gen.h"
#include "fuzz/corpus.h"
#include "io/model_io.h"
#include "io/serialize.h"
#include "ml/models/decision_tree.h"
#include "preprocess/feature_agglomeration.h"
#include "preprocess/feature_selection.h"
#include "preprocess/imputer.h"
#include "preprocess/pca.h"
#include "preprocess/scalers.h"

namespace autoem {
namespace {

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
      << what << ": payloads differ";
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(0,
              std::memcmp(a.RowPtr(r), b.RowPtr(r), a.cols() * sizeof(double)))
        << what << ": row " << r << " differs";
  }
}

// ---- serialization substrate ----------------------------------------------------

TEST(SerializeTest, PrimitivesRoundTrip) {
  io::Writer w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1234567890123ll);
  w.F64(3.141592653589793);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::infinity());
  w.Str(std::string_view("hello, \0 binary", 15));
  w.VecF64({1.5, -2.5, 0.0});
  w.VecIdx({0, 7, 123456789});

  io::Reader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double d;
  std::string s;
  std::vector<double> vd;
  std::vector<size_t> vi;
  ASSERT_TRUE(r.U8(&u8).ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(r.U32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(r.U64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(r.I32(&i32).ok());
  EXPECT_EQ(i32, -42);
  ASSERT_TRUE(r.I64(&i64).ok());
  EXPECT_EQ(i64, -1234567890123ll);
  ASSERT_TRUE(r.F64(&d).ok());
  EXPECT_EQ(d, 3.141592653589793);
  ASSERT_TRUE(r.F64(&d).ok());
  EXPECT_TRUE(std::signbit(d));
  EXPECT_EQ(d, 0.0);
  ASSERT_TRUE(r.F64(&d).ok());
  EXPECT_TRUE(std::isinf(d));
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(s, std::string("hello, \0 binary", 15));
  ASSERT_TRUE(r.VecF64(&vd).ok());
  EXPECT_EQ(vd, (std::vector<double>{1.5, -2.5, 0.0}));
  ASSERT_TRUE(r.VecIdx(&vi).ok());
  EXPECT_EQ(vi, (std::vector<size_t>{0, 7, 123456789}));
  EXPECT_EQ(r.remaining(), 0u);
}

// NaN payload bits must survive: the feature matrices use quiet NaN for
// missing values, and the bit-identity guarantee is memcmp-strict.
TEST(SerializeTest, NanPayloadBitsPreserved) {
  uint64_t bits = 0x7FF8DEADBEEF1234ull;  // quiet NaN with a payload
  double nan_in;
  std::memcpy(&nan_in, &bits, sizeof(nan_in));
  io::Writer w;
  w.F64(nan_in);
  io::Reader r(w.data());
  double nan_out;
  ASSERT_TRUE(r.F64(&nan_out).ok());
  EXPECT_EQ(0, std::memcmp(&nan_in, &nan_out, sizeof(nan_in)));
}

TEST(SerializeTest, EveryTruncationPrefixFailsCleanly) {
  io::Writer w;
  w.U32(7);
  w.Str("abcdef");
  w.VecF64({1.0, 2.0});
  const std::string& bytes = w.data();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    io::Reader r(std::string_view(bytes).substr(0, cut));
    uint32_t u;
    std::string s;
    std::vector<double> v;
    // Some prefix reads succeed; the sequence as a whole must fail without
    // ever touching out-of-bounds memory (tsan/asan would flag it).
    bool ok = r.U32(&u).ok() && r.Str(&s).ok() && r.VecF64(&v).ok();
    EXPECT_FALSE(ok) << "prefix " << cut << " parsed as complete";
  }
}

TEST(SerializeTest, AbsurdDeclaredLengthRejectedBeforeAllocation) {
  io::Writer w;
  w.U64(std::numeric_limits<uint64_t>::max());  // length prefix of a "vector"
  w.F64(1.0);
  io::Reader r(w.data());
  std::vector<double> v;
  Status st = r.VecF64(&v);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(v.empty());

  io::Reader r2(w.data());
  std::string s;
  EXPECT_FALSE(r2.Str(&s).ok());
}

TEST(SerializeTest, LenWithZeroElemSizeStillCapped) {
  // min_elem_size == 0 must floor to 1, not disable the cap: a corrupt
  // count near 2^64 has to fail here, before any resize() can abort.
  io::Writer w;
  w.U64(std::numeric_limits<uint64_t>::max());
  io::Reader r(w.data());
  uint64_t count = 0;
  EXPECT_FALSE(r.Len(&count, 0).ok());

  io::Writer w2;
  w2.U64(3);
  w2.U8(1);
  w2.U8(2);
  w2.U8(3);
  io::Reader r2(w2.data());
  EXPECT_TRUE(r2.Len(&count, 0).ok());  // 3 declared, 3 remaining: fine
  EXPECT_EQ(count, 3u);
}

TEST(SerializeTest, Crc32KnownVector) {
  // The standard CRC-32 check value (IEEE 802.3, reflected 0xEDB88320).
  EXPECT_EQ(io::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("", 0), 0x00000000u);
  EXPECT_NE(io::Crc32("123456789"), io::Crc32("123456788"));
}

// ---- per-transform fitted-state round-trips -------------------------------------

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed,
                    bool with_nan = true) {
  Rng rng(seed);
  Matrix X(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (with_nan && rng.Bernoulli(0.05)) {
        X.At(r, c) = std::numeric_limits<double>::quiet_NaN();
      } else {
        X.At(r, c) = rng.Normal(static_cast<double>(c), 1.0 + 0.1 * c);
      }
    }
  }
  return X;
}

std::vector<int> RandomLabels(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> y(rows);
  for (auto& v : y) v = rng.Bernoulli(0.3) ? 1 : 0;
  return y;
}

/// Fits `fitted`, round-trips its state into `fresh` (same hyperparameters,
/// never fitted), and checks Apply is bit-identical on held-out data.
void CheckTransformRoundTrip(Transform* fitted, Transform* fresh,
                             bool with_nan = true) {
  // In the pipeline the imputer runs first, so NaN-intolerant transforms
  // (PCA) are exercised on dense data.
  Matrix train = RandomMatrix(120, 9, 11, with_nan);
  Matrix test = RandomMatrix(40, 9, 22, with_nan);
  std::vector<int> y = RandomLabels(120, 33);
  ASSERT_TRUE(fitted->Fit(train, y).ok()) << fitted->name();

  io::Writer w;
  ASSERT_TRUE(fitted->SaveState(&w).ok()) << fitted->name();
  io::Reader r(w.data());
  ASSERT_TRUE(fresh->LoadState(&r).ok()) << fresh->name();
  EXPECT_EQ(r.remaining(), 0u) << fresh->name() << ": trailing state bytes";

  ExpectBitIdentical(fitted->Apply(test), fresh->Apply(test),
                     fitted->name() + " round-trip");

  // The loaded state reports the width Apply writes, and refuses an input
  // it was not fitted on.
  auto width = fresh->OutputWidth(train.cols());
  ASSERT_TRUE(width.ok()) << width.status().ToString();
  EXPECT_EQ(*width, fitted->Apply(test).cols()) << fresh->name();
  auto narrow = fresh->OutputWidth(0);
  ASSERT_FALSE(narrow.ok()) << fresh->name();
  EXPECT_NE(narrow.status().message().find(fresh->name()), std::string::npos)
      << narrow.status().ToString();

  // Truncated state must fail cleanly, not half-load.
  for (size_t cut : {size_t{0}, w.size() / 2, w.size() - 1}) {
    if (cut >= w.size()) continue;
    io::Reader short_r(std::string_view(w.data()).substr(0, cut));
    EXPECT_FALSE(fresh->LoadState(&short_r).ok())
        << fitted->name() << ": truncation at " << cut << " accepted";
  }
}

TEST(TransformStateTest, SimpleImputerRoundTrips) {
  for (const char* strategy : {"mean", "median", "most_frequent"}) {
    SimpleImputer fitted(strategy), fresh(strategy);
    CheckTransformRoundTrip(&fitted, &fresh);
  }
}

TEST(TransformStateTest, ScalersRoundTrip) {
  {
    StandardScaler fitted, fresh;
    CheckTransformRoundTrip(&fitted, &fresh);
  }
  {
    MinMaxScaler fitted, fresh;
    CheckTransformRoundTrip(&fitted, &fresh);
  }
  {
    RobustScaler fitted(10.0, 90.0), fresh(10.0, 90.0);
    CheckTransformRoundTrip(&fitted, &fresh);
  }
}

TEST(TransformStateTest, FeatureSelectionRoundTrips) {
  {
    SelectPercentile fitted(40.0, "f_classif"), fresh(40.0, "f_classif");
    CheckTransformRoundTrip(&fitted, &fresh);
  }
  {
    SelectRates fitted(0.1, "fpr", "chi2"), fresh(0.1, "fpr", "chi2");
    CheckTransformRoundTrip(&fitted, &fresh);
  }
  {
    VarianceThreshold fitted(0.001), fresh(0.001);
    CheckTransformRoundTrip(&fitted, &fresh);
  }
}

TEST(TransformStateTest, PcaAndAgglomerationRoundTrip) {
  {
    Pca fitted(0.9), fresh(0.9);
    CheckTransformRoundTrip(&fitted, &fresh, /*with_nan=*/false);
  }
  {
    FeatureAgglomeration fitted(4), fresh(4);
    CheckTransformRoundTrip(&fitted, &fresh);
  }
}

// ---- pipeline round-trips over the component space ------------------------------

Dataset SmallEmDataset() {
  static const Dataset* cached = [] {
    auto data = GenerateBenchmarkByName("Fodors-Zagats", /*seed=*/5,
                                        /*scale=*/0.15);
    AUTOEM_CHECK(data.ok());
    AutoMlEmFeatureGenerator gen;
    AUTOEM_CHECK(gen.Plan(data->train.left, data->train.right).ok());
    return new Dataset(gen.Generate(data->train));
  }();
  return *cached;
}

Configuration PipelineConfig(const std::string& scaler,
                             const std::string& preprocessor,
                             const std::string& balancing) {
  Configuration config = DefaultEmConfiguration(ModelSpace::kRandomForestOnly);
  config["rescaling:__choice__"] = scaler;
  config["preprocessor:__choice__"] = preprocessor;
  config["balancing:strategy"] = balancing;
  config["classifier:random_forest:n_estimators"] = int64_t{10};
  if (preprocessor == "feature_agglomeration") {
    config["preprocessor:feature_agglomeration:n_clusters"] = int64_t{5};
  }
  return config;
}

void CheckPipelineRoundTrip(const Configuration& config,
                            const std::string& what) {
  Dataset train = SmallEmDataset();
  auto pipeline = EmPipeline::Compile(config);
  ASSERT_TRUE(pipeline.ok()) << what << ": " << pipeline.status().ToString();
  ASSERT_TRUE(pipeline->Fit(train).ok()) << what;

  io::Writer w;
  ASSERT_TRUE(pipeline->SaveFitted(&w).ok()) << what;
  io::Reader r(w.data());
  auto loaded = EmPipeline::LoadFitted(&r);
  ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().ToString();
  EXPECT_EQ(r.remaining(), 0u) << what << ": trailing bytes";

  EXPECT_EQ(loaded->config(), pipeline->config()) << what;
  EXPECT_EQ(loaded->active_feature_names(), pipeline->active_feature_names())
      << what;
  ExpectBitIdentical(pipeline->PredictProba(train.X),
                     loaded->PredictProba(train.X), what);
}

TEST(PipelineStateTest, EveryScalerRoundTrips) {
  for (const char* scaler :
       {"none", "standard_scaler", "minmax_scaler", "robust_scaler"}) {
    CheckPipelineRoundTrip(
        PipelineConfig(scaler, "no_preprocessing", "weighting"),
        std::string("scaler=") + scaler);
  }
}

TEST(PipelineStateTest, EveryPreprocessorRoundTrips) {
  for (const char* preprocessor :
       {"no_preprocessing", "select_percentile_classification",
        "select_rates", "pca", "feature_agglomeration",
        "variance_threshold"}) {
    CheckPipelineRoundTrip(
        PipelineConfig("standard_scaler", preprocessor, "weighting"),
        std::string("preprocessor=") + preprocessor);
  }
}

TEST(PipelineStateTest, EveryBalancingStrategyRoundTrips) {
  for (const char* balancing : {"none", "weighting", "oversample"}) {
    CheckPipelineRoundTrip(PipelineConfig("none", "no_preprocessing",
                                          balancing),
                           std::string("balancing=") + balancing);
  }
}

// A classifier without persistence support must make SaveFitted fail
// honestly (Unimplemented), not write a partial file.
TEST(PipelineStateTest, UnsupportedClassifierRefusesToSave) {
  Dataset train = SmallEmDataset();
  Configuration config = DefaultEmConfiguration(ModelSpace::kAllModels);
  config["classifier:__choice__"] = "k_nearest_neighbors";
  auto pipeline = EmPipeline::Compile(config);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE(pipeline->Fit(train).ok());
  io::Writer w;
  Status st = pipeline->SaveFitted(&w);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
}

// ---- the container + end-to-end matcher round-trip ------------------------------

EntityMatcher TrainTinyMatcher(const BenchmarkData& data, int threads) {
  EntityMatcher::Options options;
  options.automl.max_evaluations = 2;
  options.automl.seed = 17;
  options.automl.parallelism = Parallelism::Threads(threads);
  auto matcher = EntityMatcher::Train(data.train, options);
  AUTOEM_CHECK_MSG(matcher.ok(), "tiny matcher training failed");
  return std::move(*matcher);
}

// The ISSUE acceptance bar: Save -> Load -> Predict is bit-identical on all
// eight benchmark datasets, across thread counts 1/2/8 on the loaded side.
TEST(ModelIoTest, SaveLoadPredictBitIdenticalOnAllBenchmarks) {
  for (const DatasetProfile& profile : BenchmarkProfiles()) {
    auto data = GenerateBenchmark(profile, /*seed=*/3, /*scale=*/0.05);
    ASSERT_TRUE(data.ok()) << profile.name << ": "
                           << data.status().ToString();
    EntityMatcher matcher = TrainTinyMatcher(*data, /*threads=*/1);

    auto want = matcher.ScorePairs(data->test);
    ASSERT_TRUE(want.ok()) << profile.name;

    std::string bytes;
    ASSERT_TRUE(io::SerializeModel(matcher, &bytes).ok()) << profile.name;
    for (int threads : {1, 2, 8}) {
      auto loaded = io::DeserializeModel(bytes);
      ASSERT_TRUE(loaded.ok()) << profile.name << ": "
                               << loaded.status().ToString();
      loaded->SetParallelism(Parallelism::Threads(threads));
      auto got = loaded->ScorePairs(data->test);
      ASSERT_TRUE(got.ok()) << profile.name;
      ExpectBitIdentical(*want, *got,
                         profile.name + " @" + std::to_string(threads));
      // Small chunks must agree too, including ragged tails.
      auto batched = loaded->ScorePairs(data->test, /*chunk_size=*/17);
      ASSERT_TRUE(batched.ok()) << profile.name;
      ExpectBitIdentical(*want, *batched,
                         profile.name + " batched @" +
                             std::to_string(threads));
    }
  }
}

// ScorePairs is one loop over chunks; its oracle is the whole candidate
// set featurized at once and scored in one call. Every chunk size (one pair,
// ragged, the default, exactly the set) and thread count must reproduce it.
TEST(ModelIoTest, ScorePairsMatchesUnchunkedOracleAtAnyChunkAndThreads) {
  for (const DatasetProfile& profile : BenchmarkProfiles()) {
    auto data = GenerateBenchmark(profile, /*seed=*/3, /*scale=*/0.05);
    ASSERT_TRUE(data.ok()) << profile.name;
    EntityMatcher matcher = TrainTinyMatcher(*data, /*threads=*/1);
    std::vector<double> oracle = matcher.automl_result().model.PredictProba(
        matcher.feature_generator().Generate(data->test).X);
    const size_t n = data->test.pairs.size();
    for (int threads : {1, 2, 8}) {
      matcher.SetParallelism(Parallelism::Threads(threads));
      for (size_t chunk_size : {size_t{1}, size_t{7}, size_t{4096}, n}) {
        auto got = matcher.ScorePairs(data->test, chunk_size);
        ASSERT_TRUE(got.ok()) << profile.name;
        ExpectBitIdentical(oracle, *got,
                           profile.name + " chunk " +
                               std::to_string(chunk_size) + " @" +
                               std::to_string(threads));
      }
    }
  }
}

TEST(ModelIoTest, FileRoundTripThroughDisk) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", /*seed=*/9,
                                      /*scale=*/0.1);
  ASSERT_TRUE(data.ok());
  EntityMatcher matcher = TrainTinyMatcher(*data, /*threads=*/2);
  std::string path = ::testing::TempDir() + "/autoem_model_io_test.aem";
  ASSERT_TRUE(io::SaveModel(matcher, path).ok());
  auto loaded = io::LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->automl_result().best_valid_f1,
            matcher.automl_result().best_valid_f1);
  auto want = matcher.ScorePairs(data->test);
  auto got = loaded->ScorePairs(data->test);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*want, *got, "disk round-trip");
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadMissingFileIsIOError) {
  auto loaded = io::LoadModel("/nonexistent/dir/model.aem");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// ---- corruption / truncation / version safety -----------------------------------

class ModelCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateBenchmarkByName("Fodors-Zagats", /*seed=*/13,
                                        /*scale=*/0.1);
    AUTOEM_CHECK(data.ok());
    EntityMatcher matcher = TrainTinyMatcher(*data, /*threads=*/1);
    bytes_ = new std::string;
    AUTOEM_CHECK(io::SerializeModel(matcher, bytes_).ok());
    AUTOEM_CHECK(io::DeserializeModel(*bytes_).ok());  // sanity: valid as-is
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }

  static std::string* bytes_;
};

std::string* ModelCorruptionTest::bytes_ = nullptr;

TEST_F(ModelCorruptionTest, EveryFlippedByteRejected) {
  // Every byte of the container is covered: the header fields by explicit
  // validation, every payload byte by its section CRC. Exhaustive over the
  // header + a stride through the payloads to keep runtime sane.
  const std::string& good = *bytes_;
  size_t checked = 0;
  for (size_t i = 0; i < good.size(); i = (i < 256 ? i + 1 : i + 211)) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    auto loaded = io::DeserializeModel(bad);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " accepted";
    ++checked;
  }
  EXPECT_GT(checked, 256u);
}

TEST_F(ModelCorruptionTest, EveryTruncationPointRejected) {
  const std::string& good = *bytes_;
  for (size_t len = 0; len < good.size();
       len = (len < 64 ? len + 1 : len + 197)) {
    auto loaded = io::DeserializeModel(good.substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " accepted";
    if (loaded.ok()) break;
  }
}

TEST_F(ModelCorruptionTest, WrongMagicRejected) {
  std::string bad = *bytes_;
  bad[0] = 'Z';
  auto loaded = io::DeserializeModel(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("magic"), std::string::npos);
}

TEST_F(ModelCorruptionTest, WrongFormatVersionRejected) {
  std::string bad = *bytes_;
  bad[4] = static_cast<char>(io::kModelFormatVersion + 1);  // u32 LE byte 0
  auto loaded = io::DeserializeModel(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos);
}

TEST_F(ModelCorruptionTest, TrailingGarbageRejected) {
  auto loaded = io::DeserializeModel(*bytes_ + "extra");
  EXPECT_FALSE(loaded.ok());
}

TEST_F(ModelCorruptionTest, EmptyAndTinyInputsRejected) {
  EXPECT_FALSE(io::DeserializeModel("").ok());
  EXPECT_FALSE(io::DeserializeModel("AEMM").ok());
  EXPECT_FALSE(io::DeserializeModel(std::string("\0\0\0\0", 4)).ok());
}

// ---- corruption matrix: multi-byte + structure-aware damage ---------------
//
// The single-byte flips above prove the CRCs cover every payload byte; the
// tests below use the fuzz/corpus.h surgery helpers to apply the kinds of
// damage a single flip cannot represent: runs of flipped bytes, whole
// sections exchanged, and length fields rewritten to overflow values.

TEST_F(ModelCorruptionTest, MultiByteFlipRunsRejected) {
  const std::string& good = *bytes_;
  for (size_t run : {2u, 3u, 5u, 8u, 16u, 64u}) {
    for (size_t start = 0; start + run <= good.size();
         start += good.size() / 7 + 1) {
      std::string bad = good;
      fuzz::FlipBytes(&bad, start, run);
      EXPECT_FALSE(io::DeserializeModel(bad).ok())
          << "flip of " << run << " bytes at " << start << " accepted";
    }
  }
}

TEST_F(ModelCorruptionTest, DoubleFlipThatRestoresOneByteRejected) {
  // Flip two separate bytes of the same section: CRC32 is not fooled by
  // paired damage the way a checksum-by-sum would be.
  const std::string& good = *bytes_;
  auto sections = fuzz::ListModelSections(good);
  ASSERT_TRUE(sections.ok());
  ASSERT_FALSE(sections->empty());
  const auto& sec = sections->front();
  ASSERT_GE(sec.size, 2u);
  std::string bad = good;
  fuzz::FlipBytes(&bad, sec.payload_pos, 1);
  fuzz::FlipBytes(&bad, sec.payload_pos + sec.size - 1, 1);
  EXPECT_FALSE(io::DeserializeModel(bad).ok());
}

TEST_F(ModelCorruptionTest, SwappedSectionPayloadsRejected) {
  auto sections = fuzz::ListModelSections(*bytes_);
  ASSERT_TRUE(sections.ok());
  ASSERT_GE(sections->size(), 2u);
  for (size_t a = 0; a < sections->size(); ++a) {
    for (size_t b = a + 1; b < sections->size(); ++b) {
      std::string bad = *bytes_;
      ASSERT_TRUE(fuzz::SwapSectionPayloads(&bad, a, b).ok());
      EXPECT_FALSE(io::DeserializeModel(bad).ok())
          << "payload swap " << a << "<->" << b << " accepted";
    }
  }
}

TEST_F(ModelCorruptionTest, SwappedSectionIdsRejected) {
  // Ids swapped, payloads still attached to their own sizes and CRCs: the
  // container is structurally valid and every CRC passes, so only the deep
  // parse (section consumers) can catch it. It must.
  auto sections = fuzz::ListModelSections(*bytes_);
  ASSERT_TRUE(sections.ok());
  ASSERT_GE(sections->size(), 2u);
  for (size_t a = 0; a < sections->size(); ++a) {
    for (size_t b = a + 1; b < sections->size(); ++b) {
      std::string bad = *bytes_;
      ASSERT_TRUE(fuzz::SwapSectionIds(&bad, a, b).ok());
      EXPECT_FALSE(io::DeserializeModel(bad).ok())
          << "id swap " << a << "<->" << b << " accepted";
    }
  }
}

TEST_F(ModelCorruptionTest, LengthFieldOverflowRejected) {
  auto sections = fuzz::ListModelSections(*bytes_);
  ASSERT_TRUE(sections.ok());
  for (size_t idx = 0; idx < sections->size(); ++idx) {
    for (uint64_t evil :
         {std::numeric_limits<uint64_t>::max(),
          std::numeric_limits<uint64_t>::max() - 7,
          static_cast<uint64_t>(bytes_->size()),
          (*sections)[idx].size + 1}) {
      std::string bad = *bytes_;
      ASSERT_TRUE(fuzz::SetSectionLength(&bad, idx, evil).ok());
      EXPECT_FALSE(io::DeserializeModel(bad).ok())
          << "section " << idx << " length " << evil << " accepted";
    }
  }
}

TEST_F(ModelCorruptionTest, SyntheticEnvelopeSeedsParseStructurally) {
  // The checked-in envelope seeds must at least walk the section table
  // without UB; deep parse may reject them (payloads are synthetic).
  for (const auto& seed : fuzz::ModelEnvelopeSeeds()) {
    auto sections = fuzz::ListModelSections(seed.bytes);
    auto parsed = io::DeserializeModel(seed.bytes);
    (void)sections;
    (void)parsed;  // any Status is fine; this guards against crashes
  }
}

// ---- crafted pipelines: checked before they are walked ---------------------
//
// Each container below is the tiny matcher's, with its pipeline section
// replaced by a hand-written one whose CRC is valid: the default
// configuration (mean imputer, no scaler or preprocessor, random forest)
// with chosen fill values, feature names and trees. Loading must reject
// every inconsistent one with InvalidArgument naming the component, before
// any prediction could abort or read past a fitted array.

using CraftedTree = std::vector<DecisionTreeClassifier::Node>;

DecisionTreeClassifier::Node Leaf(double prob) {
  DecisionTreeClassifier::Node n;
  n.prob_positive = prob;
  return n;
}

// A root split on `feature` at `threshold` with two leaves.
CraftedTree Stump(int feature, double threshold = 0.5) {
  DecisionTreeClassifier::Node root;
  root.feature = feature;
  root.threshold = threshold;
  root.left = 1;
  root.right = 2;
  return {root, Leaf(0.25), Leaf(0.75)};
}

struct CraftedPipeline {
  size_t names = 0;          // feature names written
  std::vector<double> fill;  // imputer fill values
  std::vector<CraftedTree> trees;
};

class CraftedModelTest : public ModelCorruptionTest {
 protected:
  // The generator's width: a consistent pipeline reads and names this many
  // columns.
  static size_t Width() {
    auto loaded = io::DeserializeModel(*bytes_);
    AUTOEM_CHECK(loaded.ok());
    return loaded->feature_generator().num_features();
  }

  static CraftedPipeline Consistent() {
    CraftedPipeline p;
    p.names = Width();
    p.fill.assign(p.names, 0.0);
    p.trees = {Stump(0), Stump(static_cast<int>(p.names) - 1)};
    return p;
  }

  static Result<EntityMatcher> Load(const CraftedPipeline& p) {
    io::Writer w;
    WriteConfigurationBinary(
        &w, DefaultEmConfiguration(ModelSpace::kRandomForestOnly));
    w.U64(p.names);
    for (size_t f = 0; f < p.names; ++f) w.Str("f" + std::to_string(f));
    w.Str("imputer_mean");
    w.VecF64(p.fill);
    w.U8(0);  // no scaler
    w.U8(0);  // no preprocessor
    w.Str("random_forest");
    w.U64(p.trees.size());
    for (const CraftedTree& tree : p.trees) {
      w.U64(tree.size());
      for (const auto& n : tree) {
        w.I32(n.feature);
        w.F64(n.threshold);
        w.I32(n.left);
        w.I32(n.right);
        w.F64(n.prob_positive);
      }
    }
    std::string bytes = *bytes_;
    auto sections = fuzz::ListModelSections(bytes);
    AUTOEM_CHECK(sections.ok());
    for (size_t i = 0; i < sections->size(); ++i) {
      if ((*sections)[i].id ==
          static_cast<uint32_t>(io::ModelSection::kPipeline)) {
        AUTOEM_CHECK(fuzz::SetSectionPayload(&bytes, i, w.data()).ok());
      }
    }
    return io::DeserializeModel(bytes);
  }

  static void ExpectRejected(const CraftedPipeline& p,
                             const std::string& component) {
    auto loaded = Load(p);
    ASSERT_FALSE(loaded.ok()) << "accepted; expected a " << component
                              << " error";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(component), std::string::npos)
        << loaded.status().ToString();
  }
};

TEST_F(CraftedModelTest, ConsistentPipelineLoadsAndScores) {
  auto loaded = Load(Consistent());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Matrix X(3, Width(), std::numeric_limits<double>::quiet_NaN());
  // NaN cells impute to 0 <= 0.5: both stumps answer their left leaf.
  for (double p : loaded->automl_result().model.PredictProba(X)) {
    EXPECT_EQ(p, 0.25);
  }
}

TEST_F(CraftedModelTest, ForestWithNoTreesRejected) {
  CraftedPipeline p = Consistent();
  p.trees.clear();
  ExpectRejected(p, "random_forest");
}

TEST_F(CraftedModelTest, TreeWithNoNodesRejected) {
  CraftedPipeline p = Consistent();
  p.trees.push_back({});
  ExpectRejected(p, "decision_tree");
}

TEST_F(CraftedModelTest, SplitPastTheInputWidthRejected) {
  CraftedPipeline p = Consistent();
  p.trees.push_back(Stump(1000));
  ExpectRejected(p, "random_forest: decision_tree: splits on feature 1000");
  p.trees.back() = Stump(static_cast<int>(p.names));  // one past the end
  ExpectRejected(p, "random_forest");
}

TEST_F(CraftedModelTest, NanSplitThresholdRejected) {
  CraftedPipeline p = Consistent();
  p.trees.push_back(Stump(0, std::numeric_limits<double>::quiet_NaN()));
  ExpectRejected(p, "decision_tree");
}

TEST_F(CraftedModelTest, ImputerFittedOnAnotherWidthRejected) {
  CraftedPipeline p = Consistent();
  p.fill.assign(1, 0.0);
  ExpectRejected(p, "imputer_mean");
}

TEST_F(CraftedModelTest, FeatureNamesOfAnotherWidthRejected) {
  CraftedPipeline p = Consistent();
  p.names += 1;
  p.fill.assign(p.names, 0.0);  // the imputer's width is then wrong too
  ExpectRejected(p, "imputer_mean");
  p.fill.assign(Width(), 0.0);
  ExpectRejected(p, "pipeline");
}

}  // namespace
}  // namespace autoem
