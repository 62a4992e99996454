#include "features/feature_gen.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

#include "common/string_util.h"
#include "common/timer.h"
#include "io/serialize.h"
#include "obs/obs.h"
#include "text/similarity.h"

namespace autoem {

namespace {

std::string TokenizerSuffix(TokenizerKind kind) {
  switch (kind) {
    case TokenizerKind::kNone:
      return "";
    case TokenizerKind::kWhitespace:
      return "_space";
    case TokenizerKind::kQGram3:
      return "_3gram";
  }
  return "";
}

std::string MeasureSlug(Measure m) {
  switch (m) {
    case Measure::kLevenshteinDistance:
      return "lev_dist";
    case Measure::kLevenshteinSimilarity:
      return "lev_sim";
    case Measure::kJaro:
      return "jaro";
    case Measure::kJaroWinkler:
      return "jaro_winkler";
    case Measure::kExactMatch:
      return "exact_match";
    case Measure::kNeedlemanWunsch:
      return "needleman_wunsch";
    case Measure::kSmithWaterman:
      return "smith_waterman";
    case Measure::kMongeElkan:
      return "monge_elkan";
    case Measure::kOverlapCoefficient:
      return "overlap";
    case Measure::kDice:
      return "dice";
    case Measure::kCosine:
      return "cosine";
    case Measure::kJaccard:
      return "jaccard";
    case Measure::kAbsoluteNorm:
      return "abs_norm";
  }
  return "unknown";
}

FeaturePlan MakePlan(const Schema& schema, size_t attr, SimFunction func) {
  FeaturePlan plan;
  plan.attr_index = attr;
  plan.func = func;
  plan.name = schema.name(attr) + "_" + MeasureSlug(func.measure) +
              TokenizerSuffix(func.tokenizer);
  return plan;
}

// Magellan's per-band string function lists (paper Table I).
std::vector<SimFunction> MagellanStringFunctions(AttributeClass cls) {
  switch (cls) {
    case AttributeClass::kSingleWordString:
      return {
          {Measure::kLevenshteinDistance, TokenizerKind::kNone},
          {Measure::kLevenshteinSimilarity, TokenizerKind::kNone},
          {Measure::kJaro, TokenizerKind::kNone},
          {Measure::kExactMatch, TokenizerKind::kNone},
          {Measure::kJaroWinkler, TokenizerKind::kNone},
          {Measure::kJaccard, TokenizerKind::kQGram3},
      };
    case AttributeClass::kShortString:
      return {
          {Measure::kLevenshteinDistance, TokenizerKind::kNone},
          {Measure::kLevenshteinSimilarity, TokenizerKind::kNone},
          {Measure::kNeedlemanWunsch, TokenizerKind::kNone},
          {Measure::kSmithWaterman, TokenizerKind::kNone},
          {Measure::kMongeElkan, TokenizerKind::kNone},
          {Measure::kCosine, TokenizerKind::kWhitespace},
          {Measure::kJaccard, TokenizerKind::kWhitespace},
          {Measure::kJaccard, TokenizerKind::kQGram3},
      };
    case AttributeClass::kMediumString:
      return {
          {Measure::kLevenshteinDistance, TokenizerKind::kNone},
          {Measure::kLevenshteinSimilarity, TokenizerKind::kNone},
          {Measure::kMongeElkan, TokenizerKind::kNone},
          {Measure::kCosine, TokenizerKind::kWhitespace},
          {Measure::kJaccard, TokenizerKind::kQGram3},
      };
    case AttributeClass::kLongString:
      return {
          {Measure::kCosine, TokenizerKind::kWhitespace},
          {Measure::kJaccard, TokenizerKind::kQGram3},
      };
    default:
      return {};
  }
}

// The intermediates several Table II functions share on one (pair,
// attribute), each computed on first use: one Levenshtein distance, one
// Jaro similarity, one alignment pass (Needleman-Wunsch and Smith-Waterman)
// and one intersection size per tokenizer.
struct SharedCores {
  explicit SharedCores(size_t attr_index) : attr(attr_index) {}

  size_t attr;
  std::optional<int> levenshtein;
  std::optional<double> jaro;
  std::optional<AlignmentScores> alignment;
  std::optional<size_t> space_common;
  std::optional<size_t> qgram_common;
};

// Monge-Elkan of two prepared cells, from their interned tokens and the
// calling thread's Jaro-Winkler memo.
double CachedMongeElkan(const CachedCell& left, const CachedCell& right,
                        uint64_t generation) {
  struct Scratch {
    JaroWinklerMemo memo;
    std::vector<std::string_view> words;
    std::vector<std::string_view> texts[2];
  };
  thread_local Scratch scratch;
  auto interned = [](const CachedCell& cell,
                     std::vector<std::string_view>* texts) {
    // The i-th view is the token at space_order[i].
    WhitespaceTokenizeInto(cell.text, &scratch.words);
    texts->resize(cell.space_ids.size());
    for (size_t i = 0; i < scratch.words.size(); ++i) {
      (*texts)[cell.space_order[i]] = scratch.words[i];
    }
    return InternedTokens{cell.space_ids, *texts, cell.space_order};
  };
  return MongeElkanTokenIds(interned(left, &scratch.texts[0]),
                            interned(right, &scratch.texts[1]), generation,
                            &scratch.memo);
}

// func.Apply(left.text, right.text) on two non-null prepared cells, bit for
// bit: each shared intermediate comes from `cores` and ends in the kernel's
// own final expression.
double CachedFeature(const SimFunction& func, const CachedCell& left,
                     const CachedCell& right, uint64_t generation,
                     SharedCores* cores) {
  auto levenshtein = [&] {
    if (!cores->levenshtein) {
      cores->levenshtein = LevenshteinDistance(left.text, right.text);
    }
    return *cores->levenshtein;
  };
  auto jaro = [&] {
    if (!cores->jaro) cores->jaro = JaroSimilarity(left.text, right.text);
    return *cores->jaro;
  };
  auto alignment = [&] {
    if (!cores->alignment) {
      cores->alignment = NeedlemanWunschAndSmithWaterman(left.text, right.text);
    }
    return *cores->alignment;
  };
  switch (func.measure) {
    case Measure::kLevenshteinDistance:
      return static_cast<double>(levenshtein());
    case Measure::kLevenshteinSimilarity:
      return LevenshteinSimilarityFromDistance(
          levenshtein(), left.text.size(), right.text.size());
    case Measure::kJaro:
      return jaro();
    case Measure::kJaroWinkler:
      return JaroWinklerFromJaro(jaro(), left.text, right.text);
    case Measure::kNeedlemanWunsch:
      return alignment().needleman_wunsch;
    case Measure::kSmithWaterman:
      return alignment().smith_waterman;
    case Measure::kMongeElkan:
      return CachedMongeElkan(left, right, generation);
    default:
      break;
  }
  // kNone token measures (not produced by any planner) fall back to the
  // uncached path rather than growing the cache by a third token kind.
  if (!func.IsTokenMeasure() || func.tokenizer == TokenizerKind::kNone) {
    return func.Apply(left.text, right.text);
  }
  const bool space = func.tokenizer == TokenizerKind::kWhitespace;
  const std::vector<uint32_t>& a = space ? left.space_ids : left.qgram_ids;
  const std::vector<uint32_t>& b = space ? right.space_ids : right.qgram_ids;
  std::optional<size_t>& common =
      space ? cores->space_common : cores->qgram_common;
  if (!common) common = SortedIdIntersectionSize(a, b);
  return func.ApplySetSizes(a.size(), b.size(), *common);
}

}  // namespace

std::vector<TableTokenCache::AttrSpec> FeatureGenerator::CacheSpecs() const {
  std::vector<TableTokenCache::AttrSpec> specs;
  auto spec_for = [&specs](size_t attr) -> TableTokenCache::AttrSpec& {
    for (auto& s : specs) {
      if (s.attr_index == attr) return s;
    }
    specs.push_back({attr});
    return specs.back();
  };
  // Set measures consume interned sorted IDs, Monge-Elkan those IDs in
  // token order; only TF-IDF needs the raw string tokens (term frequencies
  // + corpus lookups are keyed by string).
  for (const auto& p : plan_) {
    TableTokenCache::AttrSpec& spec = spec_for(p.attr_index);
    if (p.func.measure == Measure::kMongeElkan) spec.space_order = true;
    if (p.func.IsTokenMeasure()) {
      if (p.func.tokenizer == TokenizerKind::kWhitespace) {
        spec.space_ids = true;
      } else if (p.func.tokenizer == TokenizerKind::kQGram3) {
        spec.qgram_ids = true;
      }
    }
  }
  for (const auto& p : tfidf_plans_) {
    TableTokenCache::AttrSpec& spec = spec_for(p.attr_index);
    if (p.model.tokenizer() == TokenizerKind::kWhitespace) {
      spec.space_tokens = true;
    } else if (p.model.tokenizer() == TokenizerKind::kQGram3) {
      spec.qgram_tokens = true;
    }
  }
  return specs;
}

void FeatureGenerator::GenerateRowCached(const PreparedTables& prepared,
                                         size_t left_row, size_t right_row,
                                         double* row) const {
  static obs::Counter* cache_hits =
      obs::MetricsRegistry::Global().GetCounter("features.token_cache_hits");
  static obs::Counter* cache_misses =
      obs::MetricsRegistry::Global().GetCounter("features.token_cache_misses");
  // Accumulated locally and flushed once per row — two shard adds per row
  // instead of two per feature.
  uint64_t hits = 0;
  uint64_t misses = 0;
  auto tokens_of = [](const CachedCell& cell,
                      TokenizerKind kind) -> const std::vector<std::string>& {
    return kind == TokenizerKind::kWhitespace ? cell.space_tokens
                                              : cell.qgram_tokens;
  };
  const TableTokenCache& left = prepared.left;
  const TableTokenCache& right = prepared.right;
  // Reset whenever the plan moves to another attribute, so any plan order
  // gives the same bits; the planners keep an attribute's features
  // adjacent.
  SharedCores cores(static_cast<size_t>(-1));
  for (size_t f = 0; f < plan_.size(); ++f) {
    const FeaturePlan& p = plan_[f];
    const CachedCell& lc = left.cell(left_row, p.attr_index);
    const CachedCell& rc = right.cell(right_row, p.attr_index);
    if (lc.is_null || rc.is_null) {
      row[f] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    if (p.func.IsTokenMeasure()) {
      ++(p.func.tokenizer != TokenizerKind::kNone ? hits : misses);
    }
    if (cores.attr != p.attr_index) cores = SharedCores(p.attr_index);
    row[f] = CachedFeature(p.func, lc, rc, prepared.generation, &cores);
  }
  for (size_t t = 0; t < tfidf_plans_.size(); ++t) {
    const TfIdfPlan& p = tfidf_plans_[t];
    const CachedCell& lc = left.cell(left_row, p.attr_index);
    const CachedCell& rc = right.cell(right_row, p.attr_index);
    if (lc.is_null || rc.is_null) {
      row[plan_.size() + t] = std::numeric_limits<double>::quiet_NaN();
    } else {
      ++hits;
      row[plan_.size() + t] =
          p.model.SimilarityTokens(tokens_of(lc, p.model.tokenizer()),
                                   tokens_of(rc, p.model.tokenizer()));
    }
  }
  if (hits > 0) cache_hits->Add(hits);
  if (misses > 0) cache_misses->Add(misses);
}

Dataset FeatureGenerator::Generate(const PairSet& pair_set) const {
  static obs::Counter* pairs_featurized =
      obs::MetricsRegistry::Global().GetCounter("features.pairs_featurized");
  static obs::Histogram* generate_ms =
      obs::MetricsRegistry::Global().GetHistogram("features.generate_ms");
  obs::Span span("features.generate");
  if (span.active()) {
    span.Arg("pairs", pair_set.pairs.size());
    span.Arg("features", num_features());
  }
  Stopwatch timer;

  // Sized before Prepare: allocated after the token caches, the matrix
  // raised bench_e2e's peak RSS on the training workloads.
  Dataset out;
  out.X = Matrix(pair_set.pairs.size(), num_features());
  out.y.reserve(pair_set.pairs.size());
  for (const RecordPair& pair : pair_set.pairs) {
    out.y.push_back(pair.label == 1 ? 1 : 0);
  }
  out.feature_names.reserve(num_features());
  for (const auto& p : plan_) out.feature_names.push_back(p.name);
  for (const auto& p : tfidf_plans_) out.feature_names.push_back(p.name);

  PreparedTables prepared = Prepare(pair_set.left, pair_set.right);
  GenerateRows(prepared, pair_set.pairs, 0, pair_set.pairs.size(), &out.X);

  pairs_featurized->Add(pair_set.pairs.size());
  generate_ms->Observe(timer.ElapsedMillis());
  AUTOEM_LOG(DEBUG) << "featurized " << pair_set.pairs.size() << " pairs x "
                    << num_features() << " features in "
                    << timer.ElapsedMillis() << " ms";
  return out;
}

FeatureGenerator::PreparedTables FeatureGenerator::Prepare(
    const Table& left, const Table& right) const {
  std::vector<TableTokenCache::AttrSpec> specs = CacheSpecs();
  PreparedTables prepared;
  prepared.interner = std::make_unique<TokenInterner>();
  prepared.generation = JaroWinklerMemo::NewGeneration();
  prepared.left =
      TableTokenCache::Build(left, specs, parallelism_, prepared.interner.get());
  prepared.right = TableTokenCache::Build(right, specs, parallelism_,
                                          prepared.interner.get());
  return prepared;
}

Matrix FeatureGenerator::GenerateChunk(const PreparedTables& prepared,
                                       const std::vector<RecordPair>& pairs,
                                       size_t begin, size_t end) const {
  AUTOEM_CHECK(begin <= end && end <= pairs.size());
  Matrix X(end - begin, num_features());
  GenerateRows(prepared, pairs, begin, end, &X);
  return X;
}

void FeatureGenerator::GenerateRows(const PreparedTables& prepared,
                                    const std::vector<RecordPair>& pairs,
                                    size_t begin, size_t end,
                                    Matrix* X) const {
  // Every worker writes only the rows of its own pair indices, so the
  // result is identical at any thread count.
  ParallelFor(
      parallelism_, end - begin,
      [&](size_t i) {
        const RecordPair& pair = pairs[begin + i];
        GenerateRowCached(prepared, pair.left_id, pair.right_id,
                          X->RowPtr(i));
      },
      "features.generate_pairs");
}

std::vector<double> FeatureGenerator::GenerateRow(const Record& left,
                                                  const Record& right) const {
  std::vector<double> row(num_features());
  for (size_t f = 0; f < plan_.size(); ++f) {
    const FeaturePlan& p = plan_[f];
    const Value& lv = left.at(p.attr_index);
    const Value& rv = right.at(p.attr_index);
    if (lv.is_null() || rv.is_null()) {
      row[f] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    row[f] = p.func.Apply(lv.ToString(), rv.ToString());
  }
  for (size_t t = 0; t < tfidf_plans_.size(); ++t) {
    const TfIdfPlan& p = tfidf_plans_[t];
    const Value& lv = left.at(p.attr_index);
    const Value& rv = right.at(p.attr_index);
    row[plan_.size() + t] =
        (lv.is_null() || rv.is_null())
            ? std::numeric_limits<double>::quiet_NaN()
            : p.model.Similarity(lv.ToString(), rv.ToString());
  }
  return row;
}

void FeatureGenerator::PlanTfIdf(const Table& left, const Table& right) {
  tfidf_plans_.clear();
  std::vector<AttributeClass> classes = InferAllAttributeClasses(left, right);
  for (size_t a = 0; a < classes.size(); ++a) {
    if (classes[a] == AttributeClass::kBoolean ||
        classes[a] == AttributeClass::kNumeric) {
      continue;
    }
    TfIdfPlan plan;
    plan.attr_index = a;
    plan.model = TfIdfModel(TokenizerKind::kWhitespace);
    for (const Table* t : {&left, &right}) {
      for (size_t r = 0; r < t->num_rows(); ++r) {
        const Value& v = t->cell(r, a);
        if (!v.is_null()) plan.model.AddDocument(v.ToString());
      }
    }
    plan.model.Fit();
    plan.name = left.schema().name(a) + "_tfidf_cosine_space";
    tfidf_plans_.push_back(std::move(plan));
  }
}

Status MagellanFeatureGenerator::Plan(const Table& left, const Table& right) {
  if (!(left.schema() == right.schema())) {
    return Status::InvalidArgument("tables must share a schema");
  }
  plan_.clear();
  std::vector<AttributeClass> classes = InferAllAttributeClasses(left, right);
  for (size_t a = 0; a < classes.size(); ++a) {
    std::vector<SimFunction> funcs;
    switch (classes[a]) {
      case AttributeClass::kBoolean:
        funcs = AllBooleanFunctions();
        break;
      case AttributeClass::kNumeric:
        funcs = AllNumericFunctions();
        break;
      default:
        funcs = MagellanStringFunctions(classes[a]);
        break;
    }
    for (const auto& f : funcs) {
      plan_.push_back(MakePlan(left.schema(), a, f));
    }
  }
  if (plan_.empty()) {
    return Status::InvalidArgument("no features could be planned");
  }
  return Status::OK();
}

Status AutoMlEmFeatureGenerator::Plan(const Table& left, const Table& right) {
  if (!(left.schema() == right.schema())) {
    return Status::InvalidArgument("tables must share a schema");
  }
  plan_.clear();
  tfidf_plans_.clear();
  std::vector<AttributeClass> classes = InferAllAttributeClasses(left, right);
  for (size_t a = 0; a < classes.size(); ++a) {
    const std::vector<SimFunction>* funcs = nullptr;
    switch (classes[a]) {
      case AttributeClass::kBoolean:
        funcs = &AllBooleanFunctions();
        break;
      case AttributeClass::kNumeric:
        funcs = &AllNumericFunctions();
        break;
      default:
        // The AutoML-EM philosophy (paper §III-B): all string functions for
        // every string attribute, regardless of string length.
        funcs = &AllStringFunctions();
        break;
    }
    for (const auto& f : *funcs) {
      plan_.push_back(MakePlan(left.schema(), a, f));
    }
  }
  if (plan_.empty()) {
    return Status::InvalidArgument("no features could be planned");
  }
  if (include_tfidf_) PlanTfIdf(left, right);
  return Status::OK();
}

Status FeatureGenerator::SaveState(io::Writer* w) const {
  w->U64(plan_.size());
  for (const FeaturePlan& p : plan_) {
    w->U64(p.attr_index);
    w->U32(static_cast<uint32_t>(p.func.measure));
    w->U32(static_cast<uint32_t>(p.func.tokenizer));
    w->Str(p.name);
  }
  w->U64(tfidf_plans_.size());
  for (const TfIdfPlan& p : tfidf_plans_) {
    w->U64(p.attr_index);
    w->Str(p.name);
    AUTOEM_RETURN_IF_ERROR(p.model.SaveState(w));
  }
  return Status::OK();
}

Status FeatureGenerator::LoadState(io::Reader* r) {
  plan_.clear();
  tfidf_plans_.clear();
  uint64_t n_plans;
  // Each encoded plan entry is at least 24 bytes (attr + enums + name len).
  AUTOEM_RETURN_IF_ERROR(r->Len(&n_plans, 24));
  plan_.reserve(static_cast<size_t>(n_plans));
  for (uint64_t i = 0; i < n_plans; ++i) {
    FeaturePlan p;
    uint64_t attr;
    uint32_t measure, tokenizer;
    AUTOEM_RETURN_IF_ERROR(r->U64(&attr));
    AUTOEM_RETURN_IF_ERROR(r->U32(&measure));
    AUTOEM_RETURN_IF_ERROR(r->U32(&tokenizer));
    AUTOEM_RETURN_IF_ERROR(r->Str(&p.name));
    if (measure > static_cast<uint32_t>(Measure::kAbsoluteNorm) ||
        tokenizer > static_cast<uint32_t>(TokenizerKind::kQGram3)) {
      return Status::InvalidArgument("feature plan: unknown measure/tokenizer");
    }
    p.attr_index = static_cast<size_t>(attr);
    p.func.measure = static_cast<Measure>(measure);
    p.func.tokenizer = static_cast<TokenizerKind>(tokenizer);
    plan_.push_back(std::move(p));
  }
  uint64_t n_tfidf;
  AUTOEM_RETURN_IF_ERROR(r->Len(&n_tfidf, 16));
  tfidf_plans_.reserve(static_cast<size_t>(n_tfidf));
  for (uint64_t i = 0; i < n_tfidf; ++i) {
    TfIdfPlan p;
    uint64_t attr;
    AUTOEM_RETURN_IF_ERROR(r->U64(&attr));
    AUTOEM_RETURN_IF_ERROR(r->Str(&p.name));
    AUTOEM_RETURN_IF_ERROR(p.model.LoadState(r));
    p.attr_index = static_cast<size_t>(attr);
    tfidf_plans_.push_back(std::move(p));
  }
  return Status::OK();
}

Result<std::unique_ptr<FeatureGenerator>> CreateFeatureGenerator(
    const std::string& name) {
  if (name == "magellan") {
    return std::unique_ptr<FeatureGenerator>(new MagellanFeatureGenerator());
  }
  if (name == "automl_em") {
    return std::unique_ptr<FeatureGenerator>(new AutoMlEmFeatureGenerator());
  }
  if (name == "automl_em_tfidf") {
    return std::unique_ptr<FeatureGenerator>(
        new AutoMlEmFeatureGenerator(/*include_tfidf=*/true));
  }
  return Status::NotFound("unknown feature generator: " + name);
}

}  // namespace autoem
