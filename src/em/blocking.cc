#include "em/blocking.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "text/tokenizer.h"

namespace autoem {

namespace {

std::string NormalizeKey(const Value& v) {
  return ToLower(Trim(v.ToString()));
}

Result<int> FindAttribute(const Table& t, const std::string& attribute) {
  int idx = t.schema().IndexOf(attribute);
  if (idx < 0) {
    return Status::NotFound("blocking attribute not in schema: " + attribute);
  }
  return idx;
}

}  // namespace

AttributeEquivalenceBlocker::AttributeEquivalenceBlocker(std::string attribute)
    : attribute_(std::move(attribute)) {}

Result<std::vector<RecordPair>> AttributeEquivalenceBlocker::Block(
    const Table& left, const Table& right) const {
  auto left_idx = FindAttribute(left, attribute_);
  if (!left_idx.ok()) return left_idx.status();
  auto right_idx = FindAttribute(right, attribute_);
  if (!right_idx.ok()) return right_idx.status();

  std::unordered_map<std::string, std::vector<size_t>> buckets;
  for (size_t r = 0; r < left.num_rows(); ++r) {
    std::string key = NormalizeKey(left.cell(r, *left_idx));
    if (!key.empty()) buckets[key].push_back(r);
  }
  std::vector<RecordPair> out;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    std::string key = NormalizeKey(right.cell(r, *right_idx));
    auto it = buckets.find(key);
    if (it == buckets.end()) continue;
    for (size_t l : it->second) out.push_back({l, r, -1});
  }
  return out;
}

QGramBlocker::QGramBlocker(std::string attribute, size_t min_shared)
    : attribute_(std::move(attribute)), min_shared_(min_shared) {}

Result<std::vector<RecordPair>> QGramBlocker::Block(
    const Table& left, const Table& right) const {
  auto left_idx = FindAttribute(left, attribute_);
  if (!left_idx.ok()) return left_idx.status();
  auto right_idx = FindAttribute(right, attribute_);
  if (!right_idx.ok()) return right_idx.status();

  // Inverted index: 3-gram -> left row ids.
  std::unordered_map<std::string, std::vector<size_t>> index;
  for (size_t r = 0; r < left.num_rows(); ++r) {
    std::string key = NormalizeKey(left.cell(r, *left_idx));
    std::unordered_set<std::string> grams;
    for (auto& g : QGramTokenize(key, 3)) grams.insert(std::move(g));
    for (const auto& g : grams) index[g].push_back(r);
  }

  std::vector<RecordPair> out;
  std::unordered_map<size_t, size_t> shared;  // left row -> #shared grams
  for (size_t r = 0; r < right.num_rows(); ++r) {
    std::string key = NormalizeKey(right.cell(r, *right_idx));
    std::unordered_set<std::string> grams;
    for (auto& g : QGramTokenize(key, 3)) grams.insert(std::move(g));
    shared.clear();
    for (const auto& g : grams) {
      auto it = index.find(g);
      if (it == index.end()) continue;
      for (size_t l : it->second) ++shared[l];
    }
    for (const auto& [l, count] : shared) {
      if (count >= min_shared_) out.push_back({l, r, -1});
    }
  }
  return out;
}

SortedNeighborhoodBlocker::SortedNeighborhoodBlocker(std::string attribute,
                                                     size_t window)
    : attribute_(std::move(attribute)), window_(window) {}

Result<std::vector<RecordPair>> SortedNeighborhoodBlocker::Block(
    const Table& left, const Table& right) const {
  if (window_ == 0) return Status::InvalidArgument("window must be positive");
  auto left_idx = FindAttribute(left, attribute_);
  if (!left_idx.ok()) return left_idx.status();
  auto right_idx = FindAttribute(right, attribute_);
  if (!right_idx.ok()) return right_idx.status();

  // Merge both tables into one (key, side, row) list and sort by key.
  struct Entry {
    std::string key;
    bool from_left;
    size_t row;
  };
  std::vector<Entry> entries;
  entries.reserve(left.num_rows() + right.num_rows());
  for (size_t r = 0; r < left.num_rows(); ++r) {
    std::string key = NormalizeKey(left.cell(r, *left_idx));
    if (!key.empty()) entries.push_back({std::move(key), true, r});
  }
  for (size_t r = 0; r < right.num_rows(); ++r) {
    std::string key = NormalizeKey(right.cell(r, *right_idx));
    if (!key.empty()) entries.push_back({std::move(key), false, r});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  // Slide the window; emit cross-side pairs only. Each row is one entry and
  // each pair of positions is visited once, so no pair repeats.
  std::vector<RecordPair> out;
  for (size_t i = 0; i < entries.size(); ++i) {
    size_t end = std::min(entries.size(), i + window_);
    for (size_t j = i + 1; j < end; ++j) {
      const Entry& a = entries[i];
      const Entry& b = entries[j];
      if (a.from_left == b.from_left) continue;
      out.push_back({a.from_left ? a.row : b.row, a.from_left ? b.row : a.row,
                     -1});
    }
  }
  return out;
}

double BlockingRecall(const std::vector<RecordPair>& candidates,
                      const std::vector<RecordPair>& truth) {
  std::unordered_set<uint64_t> candidate_keys;
  candidate_keys.reserve(candidates.size());
  for (const auto& p : candidates) {
    candidate_keys.insert((static_cast<uint64_t>(p.left_id) << 32) |
                          static_cast<uint64_t>(p.right_id));
  }
  size_t n_true = 0;
  size_t n_found = 0;
  for (const auto& p : truth) {
    if (p.label != 1) continue;
    ++n_true;
    uint64_t key = (static_cast<uint64_t>(p.left_id) << 32) |
                   static_cast<uint64_t>(p.right_id);
    if (candidate_keys.count(key)) ++n_found;
  }
  return n_true == 0 ? 1.0
                     : static_cast<double>(n_found) /
                           static_cast<double>(n_true);
}

}  // namespace autoem
