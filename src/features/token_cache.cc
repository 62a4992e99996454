#include "features/token_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/obs.h"

namespace autoem {

namespace {

// Per-worker tokenization arena: reused across every cell a worker
// processes, so steady-state q-gram tokenization allocates nothing.
struct BuildScratch {
  QGramScratch qgrams;
  std::vector<std::string_view> words;
  std::vector<uint32_t> ids;     // a cell's token IDs, in token order
  std::vector<uint32_t> sorted;  // the same, sorted and duplicate-free
};

// Interns `tokens` into scratch->ids, one IdOf per token, and stores their
// sorted duplicate-free IDs in `out`. Deduplicating in the scratch first
// allocates `out` at its final size.
void InternSortedUnique(TokenInterner* interner,
                        const std::vector<std::string_view>& tokens,
                        BuildScratch* scratch, std::vector<uint32_t>* out) {
  scratch->ids.clear();
  for (const std::string_view tok : tokens) {
    scratch->ids.push_back(interner->IdOf(tok));
  }
  std::vector<uint32_t>& sorted = scratch->sorted;
  sorted.assign(scratch->ids.begin(), scratch->ids.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  out->assign(sorted.begin(), sorted.end());
}

}  // namespace

TableTokenCache TableTokenCache::Build(const Table& table,
                                       const std::vector<AttrSpec>& specs,
                                       const Parallelism& par,
                                       TokenInterner* interner) {
  static obs::Counter* cells_built =
      obs::MetricsRegistry::Global().GetCounter("features.cache_cells_built");
  obs::Span span("features.token_cache_build");
  if (span.active()) {
    span.Arg("rows", table.num_rows());
    span.Arg("attrs", specs.size());
  }
  for (const AttrSpec& spec : specs) {
    AUTOEM_CHECK_MSG(
        !(spec.space_ids || spec.qgram_ids || spec.space_order) ||
            interner != nullptr,
        "TableTokenCache: *_ids specs require an interner");
  }

  TableTokenCache cache;
  cache.num_rows_ = table.num_rows();
  cache.slot_of_attr_.assign(table.schema().num_attributes(), kNoSlot);
  cache.cells_.resize(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    cache.slot_of_attr_[specs[s].attr_index] = s;
    cache.cells_[s].resize(cache.num_rows_);
  }

  ParallelFor(
      par, cache.num_rows_,
      [&](size_t row) {
        thread_local BuildScratch scratch;
        for (size_t s = 0; s < specs.size(); ++s) {
          const AttrSpec& spec = specs[s];
          CachedCell& cell = cache.cells_[s][row];
          const Value& value = table.cell(row, spec.attr_index);
          cell.is_null = value.is_null();
          if (cell.is_null) continue;
          cell.text = value.ToString();
          if (spec.space_tokens) {
            cell.space_tokens =
                Tokenize(TokenizerKind::kWhitespace, cell.text);
          }
          if (spec.qgram_tokens) {
            cell.qgram_tokens = Tokenize(TokenizerKind::kQGram3, cell.text);
          }
          if (spec.space_ids || spec.space_order) {
            WhitespaceTokenizeInto(cell.text, &scratch.words);
            InternSortedUnique(interner, scratch.words, &scratch,
                               &cell.space_ids);
          }
          if (spec.space_order) {
            cell.space_order.resize(scratch.ids.size());
            for (size_t i = 0; i < scratch.ids.size(); ++i) {
              cell.space_order[i] = static_cast<uint32_t>(
                  std::lower_bound(cell.space_ids.begin(),
                                   cell.space_ids.end(), scratch.ids[i]) -
                  cell.space_ids.begin());
            }
          }
          if (spec.qgram_ids) {
            const std::vector<std::string_view>& grams =
                QGramTokenizeInto(cell.text, 3, &scratch.qgrams);
            InternSortedUnique(interner, grams, &scratch, &cell.qgram_ids);
          }
        }
      },
      "features.token_cache_build");

  cells_built->Add(cache.num_rows_ * specs.size());
  return cache;
}

}  // namespace autoem
