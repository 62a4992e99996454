#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "active/active_checkpoint.h"
#include "active/oracle.h"
#include "automl/checkpoint.h"
#include "automl/config_io.h"
#include "automl/search_space.h"
#include "automl/smac.h"
#include "common/rng.h"
#include "fault/failpoint.h"
#include "fuzz/corpus.h"
#include "io/atomic_file.h"
#include "io/container.h"
#include "io/serialize.h"
#include "obs/metrics.h"

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

void MustWriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---- AtomicWriteFile ------------------------------------------------------------

TEST(AtomicWriteFileTest, RoundTripsBytes) {
  std::string path = TempPath("autoem_atomic_rt.bin");
  // 17 bytes: \x00 \x01 "binary" \xff " payload" — ASan caught the previous
  // count of 18 reading one byte past the literal.
  std::string payload("\x00\x01binary\xff payload", 17);
  ASSERT_TRUE(io::AtomicWriteFile(path, payload).ok());
  EXPECT_EQ(MustRead(path), payload);
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, OverwriteReplacesContent) {
  std::string path = TempPath("autoem_atomic_ow.bin");
  ASSERT_TRUE(io::AtomicWriteFile(path, "first version").ok());
  ASSERT_TRUE(io::AtomicWriteFile(path, "v2").ok());
  EXPECT_EQ(MustRead(path), "v2");
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, LeavesNoTempFileBehind) {
  std::string path = TempPath("autoem_atomic_tmp.bin");
  ASSERT_TRUE(io::AtomicWriteFile(path, "x").ok());
  std::string probe;
  EXPECT_EQ(io::ReadFileToString(path + ".tmp", &probe).code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, MissingDirectoryFailsCleanly) {
  Status st = io::AtomicWriteFile(
      TempPath("no_such_dir_autoem/x.bin"), "payload");
  EXPECT_FALSE(st.ok());
}

TEST(AtomicWriteFileTest, ReadMissingFileIsNotFound) {
  std::string bytes;
  EXPECT_EQ(io::ReadFileToString(TempPath("autoem_never_written.bin"),
                                 &bytes)
                .code(),
            StatusCode::kNotFound);
}

TEST(AtomicWriteFileTest, FailpointInjectsIoError) {
  fault::FailpointRegistry::Global().Arm(
      "io.atomic_write",
      fault::FailpointSpec::Error(StatusCode::kIOError, "disk full"));
  std::string path = TempPath("autoem_atomic_fp.bin");
  Status st = io::AtomicWriteFile(path, "x");
  fault::FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  std::string probe;
  EXPECT_EQ(io::ReadFileToString(path, &probe).code(), StatusCode::kNotFound);
}

// ---- checkpoint container -------------------------------------------------------

SearchCheckpoint MakeCheckpoint() {
  SearchCheckpoint state;
  state.seed = 42;
  {
    Rng rng(42);
    rng.Uniform();  // advance so the state is not the seed-fresh stream
    std::ostringstream out;
    out << rng.engine();
    state.rng_state = out.str();
  }
  state.elapsed_seconds = 12.5;

  EvalRecord ok_record;
  ok_record.config["classifier:__choice__"] = "random_forest";
  ok_record.config["classifier:random_forest:n_estimators"] = 64;
  ok_record.valid_f1 = 0.75;
  ok_record.test_f1 = 0.7;
  ok_record.fit_seconds = 0.3;
  ok_record.trial = 0;
  ok_record.elapsed_seconds = 1.0;
  EvalRecord failed_record = ok_record;
  failed_record.trial = 1;
  failed_record.valid_f1 = 0.0;
  failed_record.failure = TrialFailure::kTimeout;
  failed_record.failure_message = "deadline exceeded";
  state.history = {ok_record, failed_record};
  return state;
}

TEST(SearchCheckpointTest, RoundTripsAllFields) {
  std::string path = TempPath("autoem_ckpt_rt.aemk");
  SearchCheckpoint state = MakeCheckpoint();
  ASSERT_TRUE(SaveSearchCheckpoint(state, path).ok());

  auto loaded = LoadSearchCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, state.seed);
  EXPECT_EQ(loaded->rng_state, state.rng_state);
  EXPECT_DOUBLE_EQ(loaded->elapsed_seconds, state.elapsed_seconds);
  ASSERT_EQ(loaded->history.size(), 2u);
  EXPECT_EQ(loaded->history[0].config, state.history[0].config);
  EXPECT_DOUBLE_EQ(loaded->history[0].valid_f1, 0.75);
  EXPECT_EQ(loaded->history[1].failure, TrialFailure::kTimeout);
  EXPECT_EQ(loaded->history[1].failure_message, "deadline exceeded");
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, TelemetryIsNotCheckpointed) {
  // Telemetry is a measurement, not resume state: setting it changes no
  // checkpoint byte, and restored trials come back unmeasured.
  SearchCheckpoint plain = MakeCheckpoint();
  SearchCheckpoint measured = plain;
  measured.history[0].telemetry = {0.125, -64, 123456789, 17, 4242, 987654};
  std::string bytes = SerializeSearchCheckpoint(measured);
  EXPECT_EQ(bytes, SerializeSearchCheckpoint(plain));

  auto loaded = DeserializeSearchCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->history.size(), 2u);
  for (const EvalRecord& record : loaded->history) {
    for (const TrialTelemetry::Column& column : TrialTelemetry::kColumns) {
      EXPECT_EQ(column.cell(record.telemetry), "") << column.name;
    }
  }
}

TEST(SearchCheckpointTest, OlderVersionsRejected) {
  // Today's layout stamped v5, the last version that stored derived state
  // (the version is the u32 after the magic; the CRCs cover only the
  // payloads), and the fuzz corpus's hand-assembled v1 container.
  std::string v5 = SerializeSearchCheckpoint(MakeCheckpoint());
  fuzz::OverwriteLe(&v5, 4, 5, 4);
  std::vector<std::string> containers = {v5};
  for (const fuzz::Seed& seed : fuzz::CheckpointSeeds()) {
    if (seed.name == "search_v1") containers.push_back(seed.bytes);
  }
  ASSERT_EQ(containers.size(), 2u);
  for (const std::string& bytes : containers) {
    auto loaded = DeserializeSearchCheckpoint(bytes);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
        << loaded.status().ToString();
  }
  EXPECT_NE(DeserializeSearchCheckpoint(v5).status().message().find(
                "version 5"),
            std::string::npos);
}

TEST(SearchCheckpointTest, HistoryCountBoundedByMinimumRecordSize) {
  // A history record takes at least 53 bytes, so a payload declaring one
  // record per 8 remaining bytes must fail the length check up front,
  // before the history is allocated.
  io::Writer payload;
  payload.U64(7);           // seed
  payload.Str("13 17 19");  // rng_state
  payload.F64(3.25);        // elapsed_seconds
  const std::string rest(8 * 53, '\0');
  payload.U64(rest.size() / 8);
  payload.Raw(rest);
  std::string bytes = SerializeSearchCheckpoint(MakeCheckpoint());
  ASSERT_TRUE(fuzz::SetSectionPayload(&bytes, 0, payload.data()).ok());
  auto loaded = DeserializeSearchCheckpoint(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("declared length"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SearchCheckpointTest, SaveIsDeterministic) {
  std::string a = TempPath("autoem_ckpt_det_a.aemk");
  std::string b = TempPath("autoem_ckpt_det_b.aemk");
  SearchCheckpoint state = MakeCheckpoint();
  ASSERT_TRUE(SaveSearchCheckpoint(state, a).ok());
  ASSERT_TRUE(SaveSearchCheckpoint(state, b).ok());
  EXPECT_EQ(MustRead(a), MustRead(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SearchCheckpointTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadSearchCheckpoint(TempPath("autoem_no_ckpt.aemk"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SearchCheckpointTest, BadMagicRejected) {
  std::string path = TempPath("autoem_ckpt_magic.aemk");
  MustWriteRaw(path, "not a checkpoint at all, definitely");
  auto loaded = LoadSearchCheckpoint(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, UnknownVersionRejected) {
  std::string path = TempPath("autoem_ckpt_ver.aemk");
  ASSERT_TRUE(SaveSearchCheckpoint(MakeCheckpoint(), path).ok());
  std::string bytes = MustRead(path);
  bytes[4] = 99;  // u32 version little-endian low byte, after 4-byte magic
  MustWriteRaw(path, bytes);
  auto loaded = LoadSearchCheckpoint(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, CorruptPayloadFailsCrc) {
  std::string path = TempPath("autoem_ckpt_crc.aemk");
  ASSERT_TRUE(SaveSearchCheckpoint(MakeCheckpoint(), path).ok());
  std::string bytes = MustRead(path);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit
  MustWriteRaw(path, bytes);
  auto loaded = LoadSearchCheckpoint(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, TruncatedFileRejected) {
  std::string path = TempPath("autoem_ckpt_trunc.aemk");
  ASSERT_TRUE(SaveSearchCheckpoint(MakeCheckpoint(), path).ok());
  std::string bytes = MustRead(path);
  MustWriteRaw(path, bytes.substr(0, bytes.size() - 7));
  EXPECT_EQ(LoadSearchCheckpoint(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, KindMismatchRejected) {
  // An active-learning checkpoint must never resume a search.
  std::string path = TempPath("autoem_ckpt_kind.aemk");
  ActiveCheckpoint active;
  active.seed = 1;
  active.rng_state = "1 2 3";
  ASSERT_TRUE(SaveActiveCheckpoint(active, path).ok());
  auto loaded = LoadSearchCheckpoint(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("kind"), std::string::npos);
  std::remove(path.c_str());
}

// ---- corruption matrix (in-memory, via fuzz/corpus.h helpers) -------------
//
// The file-based tests above poke single bytes; these go through the
// in-memory halves (SerializeSearchCheckpoint / DeserializeSearchCheckpoint)
// and apply multi-byte damage with the same surgery helpers the fuzz
// harnesses use, so every case here is also a seed the fuzzer mutates.

TEST(CheckpointCorruptionTest, RoundTripsInMemory) {
  SearchCheckpoint state = fuzz::MakeRichSearchCheckpoint();
  const std::string bytes = SerializeSearchCheckpoint(state);
  auto loaded = DeserializeSearchCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, state.seed);
  EXPECT_EQ(loaded->history.size(), state.history.size());
  EXPECT_EQ(SerializeSearchCheckpoint(*loaded), bytes);
}

// The one section of a search checkpoint: where the corruption matrix below
// finds the header fields it damages.
io::SectionRef SearchSection(const std::string& bytes) {
  auto sections = io::ListSections(bytes);
  AUTOEM_CHECK(sections.ok() && sections->size() == 1);
  return sections->front();
}

TEST(CheckpointCorruptionTest, MultiByteFlipRunsNeverCrashAndMostlyReject) {
  // Every run of flipped bytes must produce a clean Status. Flips that stay
  // inside the payload must *always* be rejected (CRC); flips confined to
  // reserved/ignored header bits may legitimately still parse, so for the
  // header we only require no-crash + no-UB.
  std::string good =
      SerializeSearchCheckpoint(fuzz::MakeRichSearchCheckpoint());
  const size_t header = SearchSection(good).payload_pos;
  for (size_t run : {2u, 4u, 9u, 32u}) {
    for (size_t start = 0; start + run <= good.size(); start += 13) {
      std::string bad = good;
      fuzz::FlipBytes(&bad, start, run);
      auto loaded = DeserializeSearchCheckpoint(bad);
      if (start >= header) {
        EXPECT_FALSE(loaded.ok())
            << "payload flip of " << run << " at " << start << " accepted";
      }
    }
  }
}

TEST(CheckpointCorruptionTest, EveryTruncationPointRejected) {
  std::string good =
      SerializeSearchCheckpoint(fuzz::MakeRichSearchCheckpoint());
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(DeserializeSearchCheckpoint(good.substr(0, len)).ok())
        << "truncation to " << len << " accepted";
  }
}

TEST(CheckpointCorruptionTest, LengthFieldOverflowRejected) {
  std::string good =
      SerializeSearchCheckpoint(fuzz::MakeRichSearchCheckpoint());
  const size_t size_pos = SearchSection(good).size_pos;
  for (uint64_t evil :
       {std::numeric_limits<uint64_t>::max(),
        std::numeric_limits<uint64_t>::max() / 2,
        static_cast<uint64_t>(good.size()),
        static_cast<uint64_t>(good.size()) + 1}) {
    std::string bad = good;
    fuzz::OverwriteLe(&bad, size_pos, evil, 8);
    EXPECT_FALSE(DeserializeSearchCheckpoint(bad).ok())
        << "declared payload size " << evil << " accepted";
  }
}

TEST(CheckpointCorruptionTest, CrcFieldDamageRejected) {
  std::string good =
      SerializeSearchCheckpoint(fuzz::MakeRichSearchCheckpoint());
  const size_t crc_pos = SearchSection(good).crc_pos;
  for (uint64_t evil : {0ull, 0xFFFFFFFFull, 0xDEADBEEFull}) {
    std::string bad = good;
    fuzz::OverwriteLe(&bad, crc_pos, evil, 4);
    auto loaded = DeserializeSearchCheckpoint(bad);
    if (loaded.ok()) {
      // Astronomically unlikely (the real CRC would have to equal `evil`);
      // treat as failure so a no-op CRC check cannot hide here.
      FAIL() << "overwritten CRC " << evil << " accepted";
    }
  }
}

TEST(CheckpointCorruptionTest, CheckpointSeedsReplayCleanly) {
  // Every checked-in AEMK seed must produce a clean Status from both
  // deserializers: valid seeds parse under exactly one kind, and the rest
  // (the v1 container, the truncation) under neither.
  for (const auto& seed : fuzz::CheckpointSeeds()) {
    auto search = DeserializeSearchCheckpoint(seed.bytes);
    auto active = DeserializeActiveCheckpoint(seed.bytes);
    if (seed.name == "search") {
      EXPECT_TRUE(search.ok()) << seed.name << ": "
                               << search.status().ToString();
      EXPECT_FALSE(active.ok()) << seed.name;
    } else if (seed.name == "active") {
      EXPECT_FALSE(search.ok()) << seed.name;
      EXPECT_TRUE(active.ok()) << seed.name << ": "
                               << active.status().ToString();
    } else {
      EXPECT_FALSE(search.ok()) << seed.name;
      EXPECT_FALSE(active.ok()) << seed.name;
    }
  }
}

TEST(ActiveCheckpointTest, RoundTripsAllFields) {
  // A session after iteration 2: three initial human labels (one
  // positive, so alpha = 1/3), then per iteration one human and one machine
  // label. The stats count what `labeled` holds.
  std::string path = TempPath("autoem_active_ckpt_rt.aemk");
  ActiveCheckpoint state;
  state.seed = 5;
  state.rng_state = "some rng stream";
  state.model_seed = 777;
  state.alpha = 1.0 / 3.0;
  state.labeled = {{10, 1, false}, {3, 0, false}, {6, 0, false},
                   {8, 1, false},  {4, 0, true},  {1, 0, false},
                   {5, 1, true}};
  state.unlabeled = {7, 2, 9};
  state.stats = {{0, 3, 0, 0.5}, {1, 4, 1, 0.6}, {2, 5, 2, 0.66}};

  ASSERT_TRUE(SaveActiveCheckpoint(state, path).ok());
  auto loaded = LoadActiveCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, 5u);
  EXPECT_EQ(loaded->rng_state, "some rng stream");
  EXPECT_EQ(loaded->model_seed, 777u);
  EXPECT_DOUBLE_EQ(loaded->alpha, 1.0 / 3.0);
  ASSERT_EQ(loaded->labeled.size(), state.labeled.size());
  for (size_t i = 0; i < state.labeled.size(); ++i) {
    EXPECT_EQ(loaded->labeled[i].pool_index, state.labeled[i].pool_index);
    EXPECT_EQ(loaded->labeled[i].label, state.labeled[i].label);
    EXPECT_EQ(loaded->labeled[i].machine, state.labeled[i].machine);
  }
  EXPECT_EQ(loaded->unlabeled, (std::vector<uint64_t>{7, 2, 9}));
  ASSERT_EQ(loaded->stats.size(), 3u);
  for (size_t i = 0; i < state.stats.size(); ++i) {
    EXPECT_EQ(loaded->stats[i].iteration, i);
    EXPECT_EQ(loaded->stats[i].human_labels, state.stats[i].human_labels);
    EXPECT_EQ(loaded->stats[i].machine_labels, state.stats[i].machine_labels);
    EXPECT_DOUBLE_EQ(loaded->stats[i].iteration_model_test_f1,
                     state.stats[i].iteration_model_test_f1);
  }
  std::remove(path.c_str());
}

// ---- kill-and-resume determinism ------------------------------------------------

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

// Trials evaluated in this process so far; a resumed leg's delta counts the
// trials it ran itself, not the ones it restored.
uint64_t TrialsRun() {
  return obs::MetricsRegistry::Global().GetCounter("automl.trials")->Total();
}

void ExpectSameTrajectory(const SearchOutcome& a, const SearchOutcome& b) {
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(ConfigurationHash(a.trajectory[i].config),
              ConfigurationHash(b.trajectory[i].config))
        << "config diverged at trial " << i;
    EXPECT_DOUBLE_EQ(a.trajectory[i].valid_f1, b.trajectory[i].valid_f1)
        << "score diverged at trial " << i;
    EXPECT_EQ(a.trajectory[i].failure, b.trajectory[i].failure);
  }
  EXPECT_EQ(a.best_config, b.best_config);
  EXPECT_DOUBLE_EQ(a.best_valid_f1, b.best_valid_f1);
}

TEST(ResumeDeterminismTest, RandomSearchResumeMatchesUninterrupted) {
  Dataset train = MakeEmLikeData(80, 40);
  Dataset valid = MakeEmLikeData(40, 41);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  std::string path = TempPath("autoem_resume_random.aemk");
  std::remove(path.c_str());

  SearchOptions options;
  options.seed = 42;
  options.max_evaluations = 9;
  HoldoutEvaluator control_eval(train, valid);
  auto control = RandomSearch(space, &control_eval, options);
  ASSERT_TRUE(control.ok());

  // "Kill" after 4 trials: a budget-limited first leg with checkpointing...
  options.max_evaluations = 4;
  options.checkpoint.path = path;
  options.checkpoint.every_n_trials = 1;
  HoldoutEvaluator first_eval(train, valid);
  ASSERT_TRUE(RandomSearch(space, &first_eval, options).ok());

  // ...then a resumed second leg with the full budget.
  options.max_evaluations = 9;
  options.checkpoint.resume = true;
  HoldoutEvaluator resumed_eval(train, valid);
  const uint64_t trials_before = TrialsRun();
  auto resumed = RandomSearch(space, &resumed_eval, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ExpectSameTrajectory(*control, *resumed);
  // The resumed leg ran only the 5 remaining trials; a resume that ignored
  // its checkpoint would rerun all 9 and still match the control.
  EXPECT_EQ(TrialsRun() - trials_before, 5u);
  std::remove(path.c_str());
}

TEST(ResumeDeterminismTest, SmacResumeMatchesUninterrupted) {
  Dataset train = MakeEmLikeData(80, 42);
  Dataset valid = MakeEmLikeData(40, 43);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  std::string path = TempPath("autoem_resume_smac.aemk");
  std::remove(path.c_str());

  SmacOptions control_options;
  control_options.base.seed = 7;
  control_options.base.max_evaluations = 10;
  control_options.n_init = 3;
  control_options.n_candidates = 20;
  HoldoutEvaluator control_eval(train, valid);
  auto control = SmacSearch(space, &control_eval, control_options);
  ASSERT_TRUE(control.ok());

  // Kill inside the surrogate phase, after trial 5 and after trial 6 of 10:
  // with n_init = 3 the next trial is a surrogate step after 5 and a random
  // interleave after 6, so the resumed leg re-enters both phases.
  for (int killed_after : {5, 6}) {
    SCOPED_TRACE("killed after trial " + std::to_string(killed_after));
    std::remove(path.c_str());
    SmacOptions options = control_options;
    options.base.max_evaluations = killed_after;
    options.base.checkpoint.path = path;
    options.base.checkpoint.every_n_trials = 1;
    HoldoutEvaluator first_eval(train, valid);
    ASSERT_TRUE(SmacSearch(space, &first_eval, options).ok());

    options.base.max_evaluations = 10;
    options.base.checkpoint.resume = true;
    HoldoutEvaluator resumed_eval(train, valid);
    const uint64_t trials_before = TrialsRun();
    auto resumed = SmacSearch(space, &resumed_eval, options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

    ExpectSameTrajectory(*control, *resumed);
    // Only the remaining trials ran; their surrogate fits read the restored
    // ones.
    EXPECT_EQ(TrialsRun() - trials_before,
              static_cast<uint64_t>(10 - killed_after));
  }
  std::remove(path.c_str());
}

TEST(ResumeDeterminismTest, ResumeCarriesQuarantineAcrossRestart) {
  Dataset train = MakeEmLikeData(80, 44);
  Dataset valid = MakeEmLikeData(40, 45);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  std::string path = TempPath("autoem_resume_quarantine.aemk");
  std::remove(path.c_str());

  SearchOptions options;
  options.seed = 46;
  options.max_evaluations = 3;
  options.checkpoint.path = path;
  options.checkpoint.every_n_trials = 1;

  // First leg: trial 1 fails and is quarantined.
  fault::FailpointSpec spec = fault::FailpointSpec::Error();
  spec.skip = 1;
  spec.max_fires = 1;
  fault::FailpointRegistry::Global().Arm("evaluator.fit", spec);
  HoldoutEvaluator first_eval(train, valid);
  auto first = RandomSearch(space, &first_eval, options);
  fault::FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->trials_failed, 1u);
  uint64_t bad_hash = ConfigurationHash(first->trajectory[1].config);

  // Resumed leg: the quarantined hash must survive the restart.
  options.max_evaluations = 8;
  options.checkpoint.resume = true;
  HoldoutEvaluator resumed_eval(train, valid);
  auto resumed = RandomSearch(space, &resumed_eval, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->trials_failed, 1u);
  for (size_t i = 2; i < resumed->trajectory.size(); ++i) {
    EXPECT_NE(ConfigurationHash(resumed->trajectory[i].config), bad_hash)
        << "quarantined config re-proposed after resume at trial " << i;
  }
  std::remove(path.c_str());
}

TEST(ResumeDeterminismTest, SeedMismatchIsRefused) {
  Dataset train = MakeEmLikeData(60, 47);
  Dataset valid = MakeEmLikeData(30, 48);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  std::string path = TempPath("autoem_resume_seed.aemk");
  std::remove(path.c_str());

  SearchOptions options;
  options.seed = 1;
  options.max_evaluations = 2;
  options.checkpoint.path = path;
  options.checkpoint.every_n_trials = 1;
  HoldoutEvaluator e1(train, valid);
  ASSERT_TRUE(RandomSearch(space, &e1, options).ok());

  options.seed = 2;
  options.checkpoint.resume = true;
  HoldoutEvaluator e2(train, valid);
  auto resumed = RandomSearch(space, &e2, options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ResumeDeterminismTest, ResumeWithoutCheckpointStartsFresh) {
  Dataset train = MakeEmLikeData(60, 49);
  Dataset valid = MakeEmLikeData(30, 50);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  std::string path = TempPath("autoem_resume_fresh.aemk");
  std::remove(path.c_str());

  SearchOptions options;
  options.seed = 51;
  options.max_evaluations = 3;
  options.checkpoint.path = path;
  options.checkpoint.resume = true;  // nothing on disk yet
  HoldoutEvaluator evaluator(train, valid);
  auto outcome = RandomSearch(space, &evaluator, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->trajectory.size(), 3u);
  std::remove(path.c_str());
}

TEST(ResumeDeterminismTest, CorruptCheckpointIsAHardError) {
  Dataset train = MakeEmLikeData(60, 52);
  Dataset valid = MakeEmLikeData(30, 53);
  ConfigurationSpace space = BuildEmSearchSpace(ModelSpace::kRandomForestOnly);
  std::string path = TempPath("autoem_resume_corrupt.aemk");
  MustWriteRaw(path, "garbage that is certainly not AEMK formatted");

  SearchOptions options;
  options.seed = 54;
  options.max_evaluations = 2;
  options.checkpoint.path = path;
  options.checkpoint.resume = true;
  HoldoutEvaluator evaluator(train, valid);
  auto outcome = RandomSearch(space, &evaluator, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

Dataset MakeActivePool() {
  Rng pool_rng(60);
  Dataset pool;
  const size_t dims = 6;
  const size_t n = 300;
  pool.X = Matrix(n, dims);
  pool.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int label = pool_rng.Bernoulli(0.2) ? 1 : 0;
    pool.y[i] = label;
    for (size_t c = 0; c < dims; ++c) {
      double center = (c < 3 && label == 1) ? 1.5 : 0.0;
      pool.X.At(i, c) = pool_rng.Normal(center, 0.8);
    }
  }
  for (size_t c = 0; c < dims; ++c) {
    pool.feature_names.push_back("f" + std::to_string(c));
  }
  return pool;
}

ActiveLearningOptions ActiveResumeOptions() {
  ActiveLearningOptions options;
  options.init_size = 40;
  options.ac_batch = 8;
  options.st_batch = 30;
  options.label_budget = 90;
  options.max_iterations = 6;
  options.model.n_estimators = 10;
  options.run_automl_at_end = false;
  options.seed = 61;
  return options;
}

TEST(ResumeDeterminismTest, ActiveLearningResumeMatchesUninterrupted) {
  const Dataset pool = MakeActivePool();
  ActiveLearningOptions options = ActiveResumeOptions();

  GroundTruthOracle control_oracle(pool.y);
  auto control = RunAutoMlEmActive(pool, &control_oracle, options);
  ASSERT_TRUE(control.ok()) << control.status().ToString();

  // First leg stops after 3 iterations, checkpointing each one.
  std::string path = TempPath("autoem_resume_active.aemk");
  std::remove(path.c_str());
  options.max_iterations = 3;
  options.checkpoint.path = path;
  GroundTruthOracle first_oracle(pool.y);
  ASSERT_TRUE(RunAutoMlEmActive(pool, &first_oracle, options).ok());

  // Resumed leg: continues to 6 without re-querying restored labels.
  options.max_iterations = 6;
  options.checkpoint.resume = true;
  GroundTruthOracle resumed_oracle(pool.y);
  auto resumed = RunAutoMlEmActive(pool, &resumed_oracle, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  EXPECT_EQ(resumed->human_labels_used, control->human_labels_used);
  EXPECT_EQ(resumed->machine_labels_added, control->machine_labels_added);
  ASSERT_EQ(resumed->collected.y.size(), control->collected.y.size());
  EXPECT_EQ(resumed->collected.y, control->collected.y);
  ASSERT_EQ(resumed->iterations.size(), control->iterations.size());
  for (size_t i = 0; i < control->iterations.size(); ++i) {
    EXPECT_EQ(resumed->iterations[i].human_labels,
              control->iterations[i].human_labels);
    EXPECT_EQ(resumed->iterations[i].machine_labels,
              control->iterations[i].machine_labels);
  }
  // The resumed oracle never re-paid for the first leg's labels.
  EXPECT_LT(resumed_oracle.num_queries(), control_oracle.num_queries());
  std::remove(path.c_str());
}

TEST(ResumeDeterminismTest, ActiveResumeRejectsMisnumberedStats) {
  // The last stats entry is the iteration a resume continues after, so the
  // stats must number the completed iterations 0..n-1.
  const Dataset pool = MakeActivePool();
  ActiveLearningOptions options = ActiveResumeOptions();
  std::string path = TempPath("autoem_resume_active_stats.aemk");
  std::remove(path.c_str());
  options.max_iterations = 2;
  options.checkpoint.path = path;
  GroundTruthOracle first_oracle(pool.y);
  ASSERT_TRUE(RunAutoMlEmActive(pool, &first_oracle, options).ok());
  auto saved = LoadActiveCheckpoint(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->stats.size(), 3u);

  ActiveCheckpoint empty = *saved;
  empty.stats.clear();
  ActiveCheckpoint repeated = *saved;
  repeated.stats[1].iteration = 2;  // 0, 2, 2
  ActiveCheckpoint shifted = *saved;
  for (ActiveIterationStats& s : shifted.stats) ++s.iteration;  // 1, 2, 3
  options.max_iterations = 6;
  options.checkpoint.resume = true;
  for (const ActiveCheckpoint* bad : {&empty, &repeated, &shifted}) {
    ASSERT_TRUE(SaveActiveCheckpoint(*bad, path).ok());
    GroundTruthOracle resumed_oracle(pool.y);
    auto resumed = RunAutoMlEmActive(pool, &resumed_oracle, options);
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
        << resumed.status().ToString();
    EXPECT_EQ(resumed_oracle.num_queries(), 0u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autoem
