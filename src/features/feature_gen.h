#ifndef AUTOEM_FEATURES_FEATURE_GEN_H_
#define AUTOEM_FEATURES_FEATURE_GEN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/parallelism.h"
#include "common/status.h"
#include "features/token_cache.h"
#include "features/type_inference.h"
#include "ml/dataset.h"
#include "table/table.h"
#include "text/similarity_function.h"
#include "text/tfidf.h"

namespace autoem {

namespace io {
class Writer;
class Reader;
}  // namespace io

/// A planned feature: apply `func` to attribute `attr_index` of a record
/// pair. Name is "<attr>_<measure>_<tokenizer>".
struct FeaturePlan {
  size_t attr_index;
  SimFunction func;
  std::string name;
};

/// A corpus-fitted TF-IDF feature on one attribute (opt-in extension to the
/// Table II set; rare tokens like model numbers get high weight).
struct TfIdfPlan {
  size_t attr_index;
  TfIdfModel model;
  std::string name;
};

/// Converts raw record pairs into numeric feature vectors — the step that
/// makes general-purpose AutoML applicable to EM (paper §III-B). Concrete
/// generators differ only in which similarity functions they assign to each
/// attribute.
class FeatureGenerator {
 public:
  virtual ~FeatureGenerator() = default;

  /// Chooses the feature plan for the schema shared by `left` and `right`.
  /// Must be called before Generate.
  virtual Status Plan(const Table& left, const Table& right) = 0;

  /// Number of planned features (similarity-function + TF-IDF).
  size_t num_features() const { return plan_.size() + tfidf_plans_.size(); }
  const std::vector<FeaturePlan>& plan() const { return plan_; }
  const std::vector<TfIdfPlan>& tfidf_plans() const { return tfidf_plans_; }

  /// Applies the plan to every pair: row i of the result corresponds to
  /// pairs[i]; labels are copied through (unlabeled pairs keep label -1 out
  /// of the Dataset; see below). Cells where either side is null become NaN.
  ///
  /// Labels: Dataset.y[i] is pairs[i].label clamped to {0, 1}; callers that
  /// pass unlabeled pairs must track label validity themselves.
  Dataset Generate(const PairSet& pair_set) const;

  /// Feature vector for a single record pair.
  std::vector<double> GenerateRow(const Record& left,
                                  const Record& right) const;

  /// Token caches for one (left, right) table pair, built once and shared
  /// across any number of GenerateChunk calls — the scoring path
  /// (EntityMatcher::ScorePairs) prepares the candidate tables a single time
  /// and then streams pair chunks against the same immutable caches.
  struct PreparedTables {
    /// Shared across both caches so equal tokens intern to equal IDs —
    /// the precondition of the ID-merge set kernels. Owned here because
    /// the cached ID vectors are only meaningful relative to it.
    std::unique_ptr<TokenInterner> interner;
    TableTokenCache left;
    TableTokenCache right;
    /// Names `interner` in the per-thread Jaro-Winkler memo that scores
    /// Monge-Elkan (JaroWinklerMemo::NewGeneration): unique per Prepare,
    /// so a memo entry keyed by another interner's IDs never hits.
    uint64_t generation = 0;
  };
  PreparedTables Prepare(const Table& left, const Table& right) const;

  /// Featurizes pairs[begin, end): row i of the result is pairs[begin + i].
  /// Generate runs the same row loop over the whole set, so the rows are
  /// bit-identical to its rows at any thread count and chunking.
  Matrix GenerateChunk(const PreparedTables& prepared,
                       const std::vector<RecordPair>& pairs, size_t begin,
                       size_t end) const;

  /// Model persistence (src/io): saves/restores the fitted feature plan
  /// (similarity-function assignments + corpus-fitted TF-IDF models), so a
  /// loaded generator featurizes new pairs bit-identically without the
  /// training tables. LoadState replaces any existing plan.
  Status SaveState(io::Writer* w) const;
  Status LoadState(io::Reader* r);

  /// Parallelism of Generate/GenerateChunk and of the token-cache build.
  /// Results are bit-identical at any setting: rows are written into a
  /// pre-sized matrix at their pair index, so row order never changes.
  void set_parallelism(const Parallelism& parallelism) {
    parallelism_ = parallelism;
  }
  const Parallelism& parallelism() const { return parallelism_; }

  virtual std::string name() const = 0;

 protected:
  std::vector<FeaturePlan> plan_;
  std::vector<TfIdfPlan> tfidf_plans_;
  Parallelism parallelism_;

  /// Fits one whitespace-token TF-IDF model per string attribute from all
  /// non-null cells of both tables. Called by generators that opt in.
  void PlanTfIdf(const Table& left, const Table& right);

 private:
  /// Token-cache requirements of the current plan: one spec per attribute
  /// the plan touches, flagging which token kinds its functions consume.
  std::vector<TableTokenCache::AttrSpec> CacheSpecs() const;

  /// The one row loop of Generate and GenerateChunk: writes the features of
  /// pairs[begin, end) into rows [0, end - begin) of `X`, which the caller
  /// has sized, fanning the pairs out over the thread pool.
  void GenerateRows(const PreparedTables& prepared,
                    const std::vector<RecordPair>& pairs, size_t begin,
                    size_t end, Matrix* X) const;

  /// Writes the feature row for (left_row, right_row) into `row` (length
  /// num_features()) using the prepared caches; bit-identical to GenerateRow
  /// on the raw records. Features of one attribute share one Levenshtein
  /// distance, one Jaro similarity, one alignment pass (Needleman-Wunsch
  /// and Smith-Waterman) and one intersection per tokenizer.
  void GenerateRowCached(const PreparedTables& prepared, size_t left_row,
                         size_t right_row, double* row) const;
};

/// Magellan's rule-based generation (paper Table I): similarity functions
/// chosen by the attribute's inferred data type / string length band.
class MagellanFeatureGenerator : public FeatureGenerator {
 public:
  Status Plan(const Table& left, const Table& right) override;
  std::string name() const override { return "magellan"; }
};

/// AutoML-EM generation (paper Table II): *all* sixteen string similarity
/// functions for every string attribute, delegating feature selection to the
/// AutoML search instead of hand-written length rules.
class AutoMlEmFeatureGenerator : public FeatureGenerator {
 public:
  /// `include_tfidf` additionally fits corpus-weighted TF-IDF cosine
  /// features per string attribute (extension beyond Table II).
  explicit AutoMlEmFeatureGenerator(bool include_tfidf = false)
      : include_tfidf_(include_tfidf) {}

  Status Plan(const Table& left, const Table& right) override;
  std::string name() const override { return "automl_em"; }

 private:
  bool include_tfidf_;
};

/// Factory: "magellan" or "automl_em".
Result<std::unique_ptr<FeatureGenerator>> CreateFeatureGenerator(
    const std::string& name);

}  // namespace autoem

#endif  // AUTOEM_FEATURES_FEATURE_GEN_H_
