#ifndef AUTOEM_FEATURES_TOKEN_CACHE_H_
#define AUTOEM_FEATURES_TOKEN_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallelism.h"
#include "table/table.h"
#include "text/interner.h"
#include "text/tokenizer.h"

namespace autoem {

/// One prepared table cell: the rendered string plus the token material the
/// feature plan needs. Only the representations requested in the Build specs
/// are filled for each attribute.
///
/// Two representations exist per tokenizer kind:
///   - `*_tokens`: the raw string tokens, consumed by TF-IDF (which needs
///     term frequencies and corpus lookups by string).
///   - `*_ids`: sorted duplicate-free token IDs from the Build-wide
///     TokenInterner, consumed by the set measures (Jaccard/Cosine/Dice/
///     Overlap) as linear merges — no per-pair hashing or allocation.
///
/// Monge-Elkan also needs the whitespace tokens in order, repeats
/// included: `space_order[i]` is the index into `space_ids` of the i-th
/// token. Their text is not stored; a scorer re-tokenizes `text` into
/// views, whose i-th view is that token.
struct CachedCell {
  bool is_null = true;
  std::string text;
  std::vector<std::string> space_tokens;
  std::vector<std::string> qgram_tokens;
  std::vector<uint32_t> space_ids;
  std::vector<uint32_t> qgram_ids;
  std::vector<uint32_t> space_order;
};

/// Shared-immutable per-table cache of rendered strings and token sets.
///
/// Feature generation evaluates ~20 similarity functions per attribute per
/// pair; without a cache each token-set function re-renders and re-tokenizes
/// both cells, so a record appearing in P pairs is tokenized O(P * functions)
/// times. Building this cache once per table reduces that to exactly once
/// per (record, attribute, tokenizer kind) and is what makes the parallel
/// feature path read-only over shared state: workers only read the cache and
/// write disjoint output rows.
///
/// Build once (optionally in parallel — rows are independent), then share
/// across any number of reader threads; the structure is immutable after
/// Build returns.
class TableTokenCache {
 public:
  /// Which token representations to precompute for one attribute.
  struct AttrSpec {
    size_t attr_index = 0;
    bool space_tokens = false;  // string tokens (TF-IDF)
    bool qgram_tokens = false;  // string grams (TF-IDF)
    bool space_ids = false;     // interned sorted IDs (set measures)
    bool qgram_ids = false;
    bool space_order = false;   // space_ids plus token order (Monge-Elkan)
  };

  TableTokenCache() = default;

  /// Renders and tokenizes every (row, spec.attr_index) cell of `table`.
  /// Rows are processed with `par` (each row writes a disjoint slot, so the
  /// build itself is deterministic and race-free).
  ///
  /// `interner` is required when any spec requests `*_ids` and must be the
  /// same instance for every table whose IDs will be compared against each
  /// other (FeatureGenerator::Prepare shares one across left and right).
  /// ID *values* depend on interleaving and thread count, but the set
  /// measures only test IDs for equality, so features stay bit-identical.
  /// Q-gram tokenization for the ID path runs through a per-worker arena
  /// (QGramScratch), so it performs no per-gram string allocations.
  static TableTokenCache Build(const Table& table,
                               const std::vector<AttrSpec>& specs,
                               const Parallelism& par,
                               TokenInterner* interner = nullptr);

  /// True when `attr` was listed in the Build specs.
  bool Has(size_t attr) const {
    return attr < slot_of_attr_.size() && slot_of_attr_[attr] != kNoSlot;
  }

  /// The prepared cell; precondition: Has(attr) and row < num_rows.
  const CachedCell& cell(size_t row, size_t attr) const {
    return cells_[slot_of_attr_[attr]][row];
  }

  size_t num_rows() const { return num_rows_; }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  size_t num_rows_ = 0;
  std::vector<size_t> slot_of_attr_;         // attribute index -> slot
  std::vector<std::vector<CachedCell>> cells_;  // [slot][row]
};

}  // namespace autoem

#endif  // AUTOEM_FEATURES_TOKEN_CACHE_H_
