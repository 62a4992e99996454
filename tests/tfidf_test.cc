// Tests for the TF-IDF similarity model, its feature-generator integration,
// and the sorted-neighborhood blocker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/benchmark_gen.h"
#include "em/blocking.h"
#include "features/feature_gen.h"
#include "io/serialize.h"
#include "text/tfidf.h"

namespace autoem {
namespace {

// ---- TfIdfModel ---------------------------------------------------------------

TfIdfModel MakeRestaurantCorpus() {
  TfIdfModel model(TokenizerKind::kWhitespace);
  // "restaurant" appears everywhere (low IDF); names are rare (high IDF).
  model.AddDocument("arnie mortons restaurant");
  model.AddDocument("arts deli restaurant");
  model.AddDocument("fenix restaurant");
  model.AddDocument("katsu restaurant");
  model.Fit();
  return model;
}

TEST(TfIdfTest, CommonTokensGetLowerIdf) {
  TfIdfModel model = MakeRestaurantCorpus();
  EXPECT_LT(model.Idf("restaurant"), model.Idf("fenix"));
  EXPECT_EQ(model.num_documents(), 4u);
  EXPECT_GE(model.vocabulary_size(), 7u);
}

TEST(TfIdfTest, OovTokensGetMaxObservedIdf) {
  TfIdfModel model = MakeRestaurantCorpus();
  EXPECT_DOUBLE_EQ(model.Idf("neverseen"), model.Idf("fenix"));
}

TEST(TfIdfTest, IdenticalStringsScoreOne) {
  TfIdfModel model = MakeRestaurantCorpus();
  EXPECT_NEAR(model.Similarity("arts deli restaurant",
                               "arts deli restaurant"),
              1.0, 1e-12);
  EXPECT_DOUBLE_EQ(model.Similarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(model.Similarity("fenix", ""), 0.0);
}

TEST(TfIdfTest, RareSharedTokenOutweighsCommonSharedToken) {
  TfIdfModel model = MakeRestaurantCorpus();
  // Sharing the rare "fenix" must count more than sharing the ubiquitous
  // "restaurant".
  double share_rare = model.Similarity("fenix grill", "fenix cafe");
  double share_common =
      model.Similarity("restaurant grill", "restaurant cafe");
  EXPECT_GT(share_rare, share_common);
}

TEST(TfIdfTest, SimilarityIsSymmetricAndBounded) {
  TfIdfModel model = MakeRestaurantCorpus();
  const char* samples[] = {"arts deli", "fenix restaurant", "katsu",
                           "something new entirely"};
  for (const char* a : samples) {
    for (const char* b : samples) {
      double ab = model.Similarity(a, b);
      EXPECT_NEAR(ab, model.Similarity(b, a), 1e-12);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0 + 1e-12);
    }
  }
}

TEST(TfIdfTest, RefitAfterMoreDocuments) {
  TfIdfModel model(TokenizerKind::kWhitespace);
  model.AddDocument("alpha beta");
  model.Fit();
  EXPECT_TRUE(model.fitted());
  model.AddDocument("alpha gamma");
  EXPECT_FALSE(model.fitted());  // stale until re-Fit
  model.Fit();
  EXPECT_LT(model.Idf("alpha"), model.Idf("beta"));
}

// ---- LoadState consistency checks -------------------------------------------------

// Hand-builds a serialized TF-IDF state. SaveState can only ever emit
// consistent states, so the malformed ones are assembled from raw writer
// calls — the same bytes a corrupted or adversarial model file would carry.
std::string EncodeTfIdfState(
    uint64_t num_documents, bool fitted,
    const std::vector<std::pair<std::string, uint64_t>>& vocab) {
  io::Writer w;
  w.U32(0);  // whitespace tokenizer
  w.U64(num_documents);
  w.U8(fitted ? 1 : 0);
  w.U64(vocab.size());
  for (const auto& [token, df] : vocab) {
    w.Str(token);
    w.U64(df);
  }
  return w.data();
}

Status LoadTfIdfState(const std::string& bytes, TfIdfModel* model) {
  io::Reader r(bytes);
  return model->LoadState(&r);
}

TEST(TfIdfStateTest, RoundTripPreservesScores) {
  TfIdfModel model = MakeRestaurantCorpus();
  io::Writer w;
  ASSERT_TRUE(model.SaveState(&w).ok());
  TfIdfModel loaded;
  std::string bytes = w.data();
  ASSERT_TRUE(LoadTfIdfState(bytes, &loaded).ok());
  EXPECT_EQ(loaded.num_documents(), model.num_documents());
  EXPECT_EQ(loaded.fitted(), model.fitted());
  EXPECT_DOUBLE_EQ(loaded.Similarity("arnie mortons", "mortons grill"),
                   model.Similarity("arnie mortons", "mortons grill"));
}

TEST(TfIdfStateTest, RejectsZeroDocumentFrequency) {
  TfIdfModel model;
  Status st = LoadTfIdfState(EncodeTfIdfState(3, true, {{"alpha", 0}}),
                             &model);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(TfIdfStateTest, RejectsDfAboveCorpusSize) {
  TfIdfModel model;
  Status st = LoadTfIdfState(EncodeTfIdfState(2, true, {{"alpha", 5}}),
                             &model);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(TfIdfStateTest, RejectsDuplicateVocabularyToken) {
  TfIdfModel model;
  Status st = LoadTfIdfState(
      EncodeTfIdfState(3, true, {{"alpha", 1}, {"alpha", 2}}), &model);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("duplicate"), std::string::npos);
}

TEST(TfIdfStateTest, RejectsFittedWithZeroDocuments) {
  TfIdfModel model;
  Status st = LoadTfIdfState(EncodeTfIdfState(0, true, {}), &model);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(TfIdfStateTest, AcceptsUnfittedEmptyState) {
  TfIdfModel model;
  EXPECT_TRUE(LoadTfIdfState(EncodeTfIdfState(0, false, {}), &model).ok());
  EXPECT_FALSE(model.fitted());
  // df == num_documents is the boundary and stays legal.
  TfIdfModel full;
  EXPECT_TRUE(
      LoadTfIdfState(EncodeTfIdfState(2, true, {{"alpha", 2}}), &full).ok());
  EXPECT_TRUE(full.fitted());
}

// ---- generator integration -------------------------------------------------------

TEST(TfIdfFeatureTest, TfIdfVariantAddsFeatures) {
  Schema schema({"name"});
  Table a("A", schema);
  Table b("B", schema);
  ASSERT_TRUE(a.Append(Record({Value("arnie mortons")})).ok());
  ASSERT_TRUE(b.Append(Record({Value("arnie mortons grill")})).ok());

  AutoMlEmFeatureGenerator plain(false);
  AutoMlEmFeatureGenerator with_tfidf(true);
  ASSERT_TRUE(plain.Plan(a, b).ok());
  ASSERT_TRUE(with_tfidf.Plan(a, b).ok());
  EXPECT_EQ(with_tfidf.num_features(), plain.num_features() + 1);
  ASSERT_EQ(with_tfidf.tfidf_plans().size(), 1u);
  EXPECT_EQ(with_tfidf.tfidf_plans()[0].name, "name_tfidf_cosine_space");

  PairSet pairs{a, b, {{0, 0, 1}}};
  Dataset d = with_tfidf.Generate(pairs);
  double tfidf_value = d.X.At(0, d.num_features() - 1);
  EXPECT_GT(tfidf_value, 0.0);
  EXPECT_LE(tfidf_value, 1.0);
}

TEST(TfIdfFeatureTest, FactorySupportsTfIdfVariant) {
  auto gen = CreateFeatureGenerator("automl_em_tfidf");
  ASSERT_TRUE(gen.ok());
}

TEST(TfIdfFeatureTest, NullValuesGiveNaN) {
  Schema schema({"name"});
  Table a("A", schema);
  Table b("B", schema);
  ASSERT_TRUE(a.Append(Record({Value::Null()})).ok());
  ASSERT_TRUE(b.Append(Record({Value("x")})).ok());
  AutoMlEmFeatureGenerator gen(true);
  ASSERT_TRUE(gen.Plan(a, b).ok());
  PairSet pairs{a, b, {{0, 0, 0}}};
  Dataset d = gen.Generate(pairs);
  EXPECT_TRUE(std::isnan(d.X.At(0, d.num_features() - 1)));
}

// ---- sorted-neighborhood blocker ---------------------------------------------------

Table KeyTable(const std::string& name,
               std::initializer_list<const char*> keys) {
  Table t(name, Schema({"k"}));
  for (const char* k : keys) {
    EXPECT_TRUE(t.Append(Record({Value(k)})).ok());
  }
  return t;
}

TEST(SortedNeighborhoodTest, AdjacentKeysArePaired) {
  Table left = KeyTable("A", {"apple pie", "zebra"});
  Table right = KeyTable("B", {"apple pies", "yak"});
  SortedNeighborhoodBlocker blocker("k", /*window=*/2);
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  bool found = false;
  for (const auto& p : *pairs) {
    if (p.left_id == 0 && p.right_id == 0) found = true;
  }
  EXPECT_TRUE(found);  // "apple pie" ~ "apple pies" sort adjacently
}

TEST(SortedNeighborhoodTest, WindowBoundsCandidateCount) {
  Table left = KeyTable("A", {"a", "b", "c", "d", "e", "f"});
  Table right = KeyTable("B", {"a1", "b1", "c1", "d1", "e1", "f1"});
  SortedNeighborhoodBlocker narrow("k", 2);
  SortedNeighborhoodBlocker wide("k", 6);
  auto n = narrow.Block(left, right);
  auto w = wide.Block(left, right);
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(w.ok());
  EXPECT_LT(n->size(), w->size());
}

TEST(SortedNeighborhoodTest, OnlyCrossSidePairsEmitted) {
  Table left = KeyTable("A", {"aa", "ab"});
  Table right = KeyTable("B", {"ba"});
  SortedNeighborhoodBlocker blocker("k", 3);
  auto pairs = blocker.Block(left, right);
  ASSERT_TRUE(pairs.ok());
  for (const auto& p : *pairs) {
    EXPECT_LT(p.left_id, left.num_rows());
    EXPECT_LT(p.right_id, right.num_rows());
  }
}

TEST(SortedNeighborhoodTest, ErrorsOnBadInputs) {
  Table left = KeyTable("A", {"x"});
  Table right = KeyTable("B", {"y"});
  EXPECT_FALSE(SortedNeighborhoodBlocker("missing", 3)
                   .Block(left, right)
                   .ok());
  EXPECT_FALSE(SortedNeighborhoodBlocker("k", 0).Block(left, right).ok());
}

// The blocker's candidates equal a brute-force walk of the merged key list:
// every cross-side pair of entries fewer than `window` positions apart, in
// (first, second) position order, each pair once. Keys are distinct, so
// both sides agree on the sorted order; blank keys join no window.
TEST(SortedNeighborhoodTest, EqualsBruteForceWindowPairs) {
  Rng rng(11);
  std::vector<std::string> keys;
  for (int k = 0; k < 60; ++k) keys.push_back(StrFormat("key%02d", k));
  rng.Shuffle(&keys);
  Table left("A", Schema({"k"}));
  Table right("B", Schema({"k"}));
  struct Entry {
    std::string key;
    bool from_left;
    size_t row;
  };
  std::vector<Entry> entries;
  for (size_t k = 0; k < keys.size(); ++k) {
    Table& table = k % 3 == 0 ? right : left;
    const size_t row = table.num_rows();
    // Every seventh row is blank after trimming.
    const std::string cell = k % 7 == 0 ? "  " : keys[k];
    ASSERT_TRUE(table.Append(Record({Value(cell)})).ok());
    if (k % 7 != 0) entries.push_back({keys[k], &table == &left, row});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  for (size_t window : {1, 2, 3, 7, 100}) {
    std::vector<std::pair<size_t, size_t>> expected;
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < entries.size() && j - i < window; ++j) {
        const Entry& a = entries[i];
        const Entry& b = entries[j];
        if (a.from_left == b.from_left) continue;
        expected.emplace_back(a.from_left ? a.row : b.row,
                              a.from_left ? b.row : a.row);
      }
    }
    auto pairs = SortedNeighborhoodBlocker("k", window).Block(left, right);
    ASSERT_TRUE(pairs.ok());
    std::vector<std::pair<size_t, size_t>> got;
    for (const RecordPair& p : *pairs) got.emplace_back(p.left_id, p.right_id);
    EXPECT_EQ(got, expected) << "window " << window;
    std::set<std::pair<size_t, size_t>> distinct(got.begin(), got.end());
    EXPECT_EQ(distinct.size(), got.size()) << "window " << window;
  }
}

TEST(SortedNeighborhoodTest, HighRecallOnGeneratedRestaurants) {
  auto data = GenerateBenchmarkByName("Fodors-Zagats", 3, 0.3);
  ASSERT_TRUE(data.ok());
  SortedNeighborhoodBlocker blocker("name", 12);
  auto candidates = blocker.Block(data->train.left, data->train.right);
  ASSERT_TRUE(candidates.ok());
  EXPECT_GT(BlockingRecall(*candidates, data->train.pairs), 0.7);
}

}  // namespace
}  // namespace autoem
