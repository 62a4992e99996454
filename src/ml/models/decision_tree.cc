#include "ml/models/decision_tree.h"

#include "io/serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "fault/failpoint.h"

namespace autoem {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// NaN cells sort (and split) as -inf so they always descend left.
inline double SplitValue(double v) { return std::isnan(v) ? kNegInf : v; }

double GiniImpurity(double w_pos, double w_total) {
  if (w_total <= 0.0) return 0.0;
  double p = w_pos / w_total;
  return 2.0 * p * (1.0 - p);
}

double EntropyImpurity(double w_pos, double w_total) {
  if (w_total <= 0.0) return 0.0;
  double p = w_pos / w_total;
  double h = 0.0;
  if (p > 0.0) h -= p * std::log2(p);
  if (p < 1.0) h -= (1.0 - p) * std::log2(1.0 - p);
  return h;
}

// The impurity of `options.criterion` ("entropy", else gini): a direct call
// the split scans inline, where a function pointer would cost an indirect
// call per side of every scored cut.
inline double Impurity(bool entropy, double w_pos, double w_total) {
  return entropy ? EntropyImpurity(w_pos, w_total)
                 : GiniImpurity(w_pos, w_total);
}

// The threshold of a cut between split values lo < hi: their midpoint, or
// lo when that is not finite (lo is -inf, or the sum overflows).
double CutThreshold(double lo, double hi) {
  const double mid = (lo + hi) / 2.0;
  return std::isfinite(mid) ? mid : lo;
}

size_t NumFeaturesToTry(double max_features, size_t n_features) {
  double k = max_features * static_cast<double>(n_features);
  size_t out = static_cast<size_t>(std::lround(k));
  return std::clamp<size_t>(out, 1, n_features);
}

// Extra-Trees split of one feature: a single threshold drawn uniformly
// between the finite min and max of `vals`. Returns false when the feature
// is constant there or a child would fall below `min_leaf`.
bool RandomThresholdSplit(const std::vector<std::pair<double, size_t>>& vals,
                          const std::vector<int>& y,
                          const std::vector<double>& w, double w_total,
                          double w_pos, double parent_impurity, bool entropy,
                          size_t min_leaf, Rng* rng, double* decrease_out,
                          double* threshold_out) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& [v, i] : vals) {
    if (std::isfinite(v)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (!(lo < hi)) return false;
  double threshold = rng->Uniform(lo, hi);
  double wl = 0.0, wl_pos = 0.0;
  size_t nl = 0;
  for (const auto& [v, i] : vals) {
    if (v <= threshold) {
      wl += w[i];
      if (y[i] == 1) wl_pos += w[i];
      ++nl;
    }
  }
  size_t nr = vals.size() - nl;
  if (nl < min_leaf || nr < min_leaf) return false;
  double wr = w_total - wl;
  double wr_pos = w_pos - wl_pos;
  *decrease_out = parent_impurity -
                  (wl / w_total) * Impurity(entropy, wl_pos, wl) -
                  (wr / w_total) * Impurity(entropy, wr_pos, wr);
  *threshold_out = threshold;
  return true;
}

// A node's feature is scanned by counting rank buckets when its distinct
// count D is at most this many times the node's rows m, and by sorting
// (rank, row) keys otherwise. A counting scan costs O(m + D/64): one pass
// over the rows, then a walk of the D/64-word bitmap of touched ranks. So
// counting wins until the bitmap's words outnumber the rows, while the
// sort's O(m log m) stays cheaper for a few rows over a tall table's D.
constexpr size_t kCountingMaxDistinctPerRow = 64;

// A row's weight and its positive weight (the weight when y == 1, else
// +0.0), added lane by lane: one IEEE add per lane, exactly the scalar add,
// so every sum keeps its bits. A positive-weight sum starts at +0.0 and only
// grows, so it is never -0.0, and adding a negative row's +0.0 leaves it
// unchanged: no branch on the label.
typedef double WeightPair __attribute__((vector_size(16)));

// The rank-based CART builder (DESIGN.md §13). A node's rows live in
// rows_[begin, end) in ascending order (the root takes rows in order and
// the stable partition keeps it), so both scans meet each value group's
// rows in row order.
class RankTreeBuilder {
 public:
  using Node = DecisionTreeClassifier::Node;

  RankTreeBuilder(const TreeOptions& options, const Matrix& X,
                  const FeatureRanks* ranks, const std::vector<int>& y,
                  const std::vector<double>& w, std::vector<uint32_t> rows,
                  std::vector<Node>* nodes)
      : options_(options),
        X_(X),
        ranks_(ranks),
        y_(y),
        w_(w),
        rows_(std::move(rows)),
        nodes_(nodes),
        entropy_(options.criterion == "entropy"),
        min_leaf_(static_cast<size_t>(options.min_samples_leaf)),
        weights_(y.size()),
        right_(rows_.size()) {
    for (size_t i = 0; i < y.size(); ++i) {
      weights_[i] = WeightPair{w[i], y[i] == 1 ? w[i] : 0.0};
    }
    if (ranks_ == nullptr) return;
    uint32_t max_distinct = 0;
    for (size_t f = 0; f < X.cols(); ++f) {
      max_distinct = std::max(max_distinct, ranks_->Distinct(f));
    }
    buckets_.resize(max_distinct);
    touched_.resize((size_t{max_distinct} + 63) / 64);
    keys_.resize(rows_.size());
  }

  void Build(Rng* rng) { BuildNode(0, rows_.size(), 0, rng); }

 private:
  // A rank's rows: their weight pairs, and one word holding their count
  // (high half) and last row (low half), so a row updates both with one
  // 8-byte read-modify-write. A count never passes kMaxRows rows.
  struct Bucket {
    WeightPair w = {0.0, 0.0};
    uint64_t count_row = 0;
  };

  // A node's split search state: the sums every cut is scored against and
  // the best cut so far.
  struct Search {
    size_t m;
    double w_total;
    double w_pos;
    double parent_impurity;
    double best_decrease;
    int best_feature = -1;
    uint32_t lo_row = 0;  // the last row of the group below the best cut
    uint32_t hi_row = 0;  // a row above the best cut
    double random_threshold = 0.0;  // random-threshold mode only
  };

  // Scores the cut that puts `nl` rows with weight pair `wl` on the left of
  // feature f, between the values of rows lo and hi. The same checks and
  // expressions as the reference's scan, so the same cut wins.
  void Consider(Search* s, size_t f, WeightPair wl, size_t nl, uint32_t lo,
                uint32_t hi) const {
    size_t nr = s->m - nl;
    if (nl < min_leaf_ || nr < min_leaf_) return;
    double wr = s->w_total - wl[0];
    double wr_pos = s->w_pos - wl[1];
    double decrease = s->parent_impurity -
                      (wl[0] / s->w_total) * Impurity(entropy_, wl[1], wl[0]) -
                      (wr / s->w_total) * Impurity(entropy_, wr_pos, wr);
    if (decrease > s->best_decrease) {
      s->best_decrease = decrease;
      s->best_feature = static_cast<int>(f);
      s->lo_row = lo;
      s->hi_row = hi;
    }
  }

  // Few distinct values: add each row's weight pair to its rank's bucket,
  // in row order, marking the rank's bit in touched_; then walk the set bits
  // in rank order and cut between consecutive buckets. The walk clears
  // every bucket and word it visits, so both are all zero between scans and
  // a scan costs O(m + D/64).
  void CountingScan(Search* s, size_t f, const uint32_t* rows) {
    const uint32_t* rank = ranks_->Ranks(f);
    for (size_t k = 0; k < s->m; ++k) {
      const uint32_t i = rows[k];
      const uint32_t r = rank[i];
      Bucket& b = buckets_[r];
      b.w += weights_[i];
      b.count_row = ((b.count_row >> 32) + 1) << 32 | i;
      touched_[r / 64] |= uint64_t{1} << (r % 64);
    }
    WeightPair wl = {0.0, 0.0};
    size_t nl = 0;
    uint32_t prev = 0;
    for (size_t word = 0; nl < s->m; ++word) {
      for (uint64_t bits = std::exchange(touched_[word], 0); bits != 0;
           bits &= bits - 1) {
        Bucket& b = buckets_[word * 64 + std::countr_zero(bits)];
        const uint32_t row = static_cast<uint32_t>(b.count_row);
        if (nl > 0) Consider(s, f, wl, nl, prev, row);
        wl += b.w;
        nl += b.count_row >> 32;
        prev = row;
        b = Bucket{};
      }
    }
  }

  // Many distinct values: sort (rank << 32 | row) keys, which are unique,
  // so any correct sort leaves them in (value, row) order. One walk sums
  // each group and adds the sum at the group's end.
  void KeySortScan(Search* s, size_t f, const uint32_t* rows) {
    const uint32_t* rank = ranks_->Ranks(f);
    const auto keys = keys_.begin();
    for (size_t k = 0; k < s->m; ++k) {
      keys[k] = uint64_t{rank[rows[k]]} << 32 | rows[k];
    }
    std::sort(keys, keys + static_cast<ptrdiff_t>(s->m));
    WeightPair wl = {0.0, 0.0}, group = {0.0, 0.0};
    for (size_t k = 0; k + 1 < s->m; ++k) {
      const uint32_t i = static_cast<uint32_t>(keys[k]);
      group += weights_[i];
      if ((keys[k] >> 32) == (keys[k + 1] >> 32)) continue;  // ties
      wl += group;
      group = WeightPair{0.0, 0.0};
      Consider(s, f, wl, k + 1, i, static_cast<uint32_t>(keys[k + 1]));
    }
  }

  int BuildNode(size_t begin, size_t end, int depth, Rng* rng) {
    uint32_t* const rows = rows_.data() + begin;
    const size_t m = end - begin;
    WeightPair total = {0.0, 0.0};
    for (size_t k = 0; k < m; ++k) total += weights_[rows[k]];
    const double w_total = total[0];
    const double w_pos = total[1];

    int node_id = static_cast<int>(nodes_->size());
    nodes_->emplace_back();
    (*nodes_)[node_id].prob_positive = w_total > 0.0 ? w_pos / w_total : 0.0;

    // Once the trial deadline fires, stop splitting: the subtree collapses
    // to this leaf and Fit reports DeadlineExceeded. One check per node
    // keeps the poll cost far below the split-search work it gates.
    if (options_.cancel.Cancelled()) return node_id;

    const bool is_pure = (w_pos <= 0.0 || w_pos >= w_total);
    const bool depth_capped =
        options_.max_depth > 0 && depth >= options_.max_depth;
    if (is_pure || depth_capped ||
        m < static_cast<size_t>(options_.min_samples_split) ||
        m < 2 * min_leaf_) {
      return node_id;
    }

    Search s{m, w_total, w_pos, Impurity(entropy_, w_pos, w_total),
             options_.min_impurity_decrease};
    size_t n_try = NumFeaturesToTry(options_.max_features, X_.cols());
    std::vector<size_t> features =
        rng->SampleWithoutReplacement(X_.cols(), n_try);

    std::vector<std::pair<double, size_t>> vals;
    for (size_t f : features) {
      if (options_.random_thresholds) {
        vals.clear();
        for (size_t k = 0; k < m; ++k) {
          vals.emplace_back(SplitValue(X_.At(rows[k], f)), rows[k]);
        }
        double decrease, threshold;
        if (RandomThresholdSplit(vals, y_, w_, w_total, w_pos,
                                 s.parent_impurity, entropy_, min_leaf_, rng,
                                 &decrease, &threshold) &&
            decrease > s.best_decrease) {
          s.best_decrease = decrease;
          s.best_feature = static_cast<int>(f);
          s.random_threshold = threshold;
        }
        continue;
      }
      if (ranks_->Distinct(f) <= kCountingMaxDistinctPerRow * m) {
        CountingScan(&s, f, rows);
      } else {
        KeySortScan(&s, f, rows);
      }
    }

    if (s.best_feature < 0) return node_id;
    const size_t best_feature = static_cast<size_t>(s.best_feature);
    const double threshold =
        options_.random_thresholds
            ? s.random_threshold
            : CutThreshold(SplitValue(X_.At(s.lo_row, best_feature)),
                           SplitValue(X_.At(s.hi_row, best_feature)));

    // Stable partition by value, as the reference routes rows, without a
    // branch: each row is written to the next left slot and the next right
    // scratch slot, and only the cursor of its side advances. No threshold
    // is NaN, so !(v > threshold) is SplitValue(v) <= threshold: a NaN cell
    // goes left.
    uint32_t* const right = right_.data();
    size_t nl = 0, nr = 0;
    for (size_t k = 0; k < m; ++k) {
      const uint32_t i = rows[k];
      const bool left = !(X_.At(i, best_feature) > threshold);
      rows[nl] = i;
      right[nr] = i;
      nl += left;
      nr += !left;
    }
    std::copy(right, right + nr, rows + nl);
    if (nl == 0 || nl == m) return node_id;  // degenerate

    int left_id = BuildNode(begin, begin + nl, depth + 1, rng);
    int right_id = BuildNode(begin + nl, end, depth + 1, rng);
    Node& node = (*nodes_)[node_id];
    node.feature = s.best_feature;
    node.threshold = threshold;
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  const TreeOptions& options_;
  const Matrix& X_;
  const FeatureRanks* ranks_;
  const std::vector<int>& y_;
  const std::vector<double>& w_;
  std::vector<uint32_t> rows_;
  std::vector<Node>* nodes_;
  const bool entropy_;
  const size_t min_leaf_;
  std::vector<WeightPair> weights_;  // per row of X, built once per tree
  std::vector<uint32_t> right_;  // a partition's right rows, in order
  std::vector<Bucket> buckets_;  // all zero between scans
  std::vector<uint64_t> touched_;  // bit r set: buckets_[r] holds rows
  std::vector<uint64_t> keys_;
};

}  // namespace

// ---- FeatureRanks -----------------------------------------------------------

FeatureRanks::FeatureRanks(const Matrix& X)
    : rows_(X.rows()), ranks_(X.rows() * X.cols()), distinct_(X.cols(), 0) {
  AUTOEM_CHECK(rows_ <= kMaxRows);
  std::vector<std::pair<double, uint32_t>> vals(rows_);
  for (size_t f = 0; f < X.cols(); ++f) {
    for (size_t i = 0; i < rows_; ++i) {
      vals[i] = {SplitValue(X.At(i, f)), static_cast<uint32_t>(i)};
    }
    // NaN is already -inf, so this is a strict weak order, and -0 and +0
    // tie on value: a rank is exactly a class of values that compare equal.
    std::sort(vals.begin(), vals.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    uint32_t* rank = ranks_.data() + f * rows_;
    uint32_t r = 0;
    for (size_t j = 0; j < rows_; ++j) {
      if (j > 0 && vals[j].first != vals[j - 1].first) ++r;
      rank[vals[j].second] = r;
    }
    distinct_[f] = rows_ == 0 ? 0 : r + 1;
  }
}

// Values tie in the subset exactly when their ranks in `whole` do, and keep
// their order, so a subset row's dense rank is the number of distinct
// `whole` ranks the subset holds below its own: a prefix popcount over the
// presence bitmap.
FeatureRanks::FeatureRanks(const FeatureRanks& whole,
                           const std::vector<size_t>& rows)
    : rows_(rows.size()),
      ranks_(rows.size() * whole.cols()),
      distinct_(whole.cols(), 0) {
  AUTOEM_CHECK(rows_ <= kMaxRows);
  for (size_t i : rows) AUTOEM_CHECK(i < whole.rows());
  std::vector<uint64_t> present;
  std::vector<uint32_t> below;  // set bits in the words before each word
  for (size_t f = 0; f < cols(); ++f) {
    const uint32_t* from = whole.Ranks(f);
    const size_t words = (size_t{whole.Distinct(f)} + 63) / 64;
    present.assign(words, 0);
    for (size_t i : rows) {
      present[from[i] / 64] |= uint64_t{1} << (from[i] % 64);
    }
    below.resize(words);
    uint32_t count = 0;
    for (size_t k = 0; k < words; ++k) {
      below[k] = count;
      count += static_cast<uint32_t>(std::popcount(present[k]));
    }
    uint32_t* rank = ranks_.data() + f * rows_;
    for (size_t j = 0; j < rows_; ++j) {
      const uint32_t r = from[rows[j]];
      const uint64_t lower = present[r / 64] & ((uint64_t{1} << (r % 64)) - 1);
      rank[j] = below[r / 64] + static_cast<uint32_t>(std::popcount(lower));
    }
    distinct_[f] = count;
  }
}

// ---- DecisionTreeClassifier -------------------------------------------------

DecisionTreeClassifier::DecisionTreeClassifier(TreeOptions options)
    : options_(std::move(options)) {}

std::unique_ptr<Classifier> DecisionTreeClassifier::FromParams(
    const ParamMap& params) {
  TreeOptions opt;
  opt.criterion = GetString(params, "criterion", "gini");
  opt.max_depth = static_cast<int>(GetInt(params, "max_depth", 0));
  opt.min_samples_split =
      static_cast<int>(GetInt(params, "min_samples_split", 2));
  opt.min_samples_leaf =
      static_cast<int>(GetInt(params, "min_samples_leaf", 1));
  opt.max_features = GetDouble(params, "max_features", 1.0);
  opt.min_impurity_decrease =
      GetDouble(params, "min_impurity_decrease", 0.0);
  opt.seed = static_cast<uint64_t>(GetInt(params, "seed", 13));
  return std::make_unique<DecisionTreeClassifier>(opt);
}

Status DecisionTreeClassifier::Fit(const Matrix& X, const std::vector<int>& y,
                                   const std::vector<double>* sample_weights) {
  if (options_.random_thresholds) return FitWith(X, nullptr, y, sample_weights);
  if (X.rows() > FeatureRanks::kMaxRows) {
    return Status::InvalidArgument("decision_tree: too many rows");
  }
  FeatureRanks ranks(X);
  return FitWith(X, &ranks, y, sample_weights);
}

Status DecisionTreeClassifier::Fit(const Matrix& X, const FeatureRanks& ranks,
                                   const std::vector<int>& y,
                                   const std::vector<double>* sample_weights) {
  return FitWith(X, &ranks, y, sample_weights);
}

Status DecisionTreeClassifier::FitWith(
    const Matrix& X, const FeatureRanks* ranks, const std::vector<int>& y,
    const std::vector<double>* sample_weights) {
  AUTOEM_RETURN_IF_ERROR(ValidateFitInputs(X, y, sample_weights));
  AUTOEM_FAILPOINT("tree.fit");
  if (X.rows() > FeatureRanks::kMaxRows) {
    return Status::InvalidArgument("decision_tree: too many rows");
  }
  if (ranks != nullptr &&
      (ranks->rows() != X.rows() || ranks->cols() != X.cols())) {
    return Status::InvalidArgument("decision_tree: ranks do not match X");
  }
  nodes_.clear();
  std::vector<double> w =
      sample_weights ? *sample_weights : std::vector<double>(y.size(), 1.0);
  std::vector<uint32_t> rows;
  rows.reserve(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    if (w[i] > 0.0) rows.push_back(static_cast<uint32_t>(i));
  }
  if (rows.empty()) {
    return Status::InvalidArgument("all sample weights are zero");
  }
  Rng rng(options_.seed);
  RankTreeBuilder(options_, X, ranks, y, w, std::move(rows), &nodes_)
      .Build(&rng);
  return options_.cancel.Check("tree.fit");
}

namespace reference {

namespace {

// The split search's definition in plain code: every tried feature's rows
// stably sorted by value, each value group summed in row order.
struct SortingTreeBuilder {
  const TreeOptions& options_;
  std::vector<DecisionTreeClassifier::Node> nodes_;

  int BuildNode(const Matrix& X, const std::vector<int>& y,
                const std::vector<double>& w, std::vector<size_t>* indices,
                int depth, Rng* rng);
};

int SortingTreeBuilder::BuildNode(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& w,
                                  std::vector<size_t>* indices, int depth,
                                  Rng* rng) {
  const auto& idx = *indices;
  double w_total = 0.0;
  double w_pos = 0.0;
  for (size_t i : idx) {
    w_total += w[i];
    if (y[i] == 1) w_pos += w[i];
  }

  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].prob_positive = w_total > 0.0 ? w_pos / w_total : 0.0;

  // Once the trial deadline fires, stop splitting: the subtree collapses to
  // this leaf and Fit reports DeadlineExceeded. One check per node keeps the
  // poll cost far below the split-search work it gates.
  if (options_.cancel.Cancelled()) return node_id;

  const bool is_pure = (w_pos <= 0.0 || w_pos >= w_total);
  const bool depth_capped =
      options_.max_depth > 0 && depth >= options_.max_depth;
  if (is_pure || depth_capped ||
      idx.size() < static_cast<size_t>(options_.min_samples_split) ||
      idx.size() < 2 * static_cast<size_t>(options_.min_samples_leaf)) {
    return node_id;
  }

  const bool entropy = options_.criterion == "entropy";
  const double parent_impurity = Impurity(entropy, w_pos, w_total);

  size_t n_try = NumFeaturesToTry(options_.max_features, X.cols());
  std::vector<size_t> features =
      rng->SampleWithoutReplacement(X.cols(), n_try);

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_decrease = options_.min_impurity_decrease;

  // Reusable scratch: (split value, original index).
  std::vector<std::pair<double, size_t>> vals;
  vals.reserve(idx.size());
  const size_t min_leaf = static_cast<size_t>(options_.min_samples_leaf);

  for (size_t f : features) {
    vals.clear();
    for (size_t i : idx) vals.emplace_back(SplitValue(X.At(i, f)), i);

    if (options_.random_thresholds) {
      double decrease, threshold;
      if (RandomThresholdSplit(vals, y, w, w_total, w_pos, parent_impurity,
                               entropy, min_leaf, rng, &decrease,
                               &threshold) &&
          decrease > best_decrease) {
        best_decrease = decrease;
        best_feature = static_cast<int>(f);
        best_threshold = threshold;
      }
      continue;
    }

    // idx is ascending, so this is (value, row) order.
    std::stable_sort(
        vals.begin(), vals.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    double wl = 0.0, wl_pos = 0.0, gw = 0.0, gw_pos = 0.0;
    for (size_t k = 0; k + 1 < vals.size(); ++k) {
      size_t i = vals[k].second;
      gw += w[i];
      if (y[i] == 1) gw_pos += w[i];
      if (vals[k].first == vals[k + 1].first) continue;  // no cut between ties
      wl += gw;
      wl_pos += gw_pos;
      gw = gw_pos = 0.0;
      size_t nl = k + 1;
      size_t nr = vals.size() - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      double wr = w_total - wl;
      double wr_pos = w_pos - wl_pos;
      double decrease = parent_impurity -
                        (wl / w_total) * Impurity(entropy, wl_pos, wl) -
                        (wr / w_total) * Impurity(entropy, wr_pos, wr);
      if (decrease > best_decrease) {
        best_decrease = decrease;
        best_feature = static_cast<int>(f);
        // vals[k] is its group's last row, so a ±0 group below +inf takes
        // that row's sign.
        best_threshold = CutThreshold(vals[k].first, vals[k + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<size_t> left_idx;
  std::vector<size_t> right_idx;
  left_idx.reserve(idx.size());
  right_idx.reserve(idx.size());
  for (size_t i : idx) {
    if (SplitValue(X.At(i, static_cast<size_t>(best_feature))) <=
        best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;  // degenerate

  indices->clear();  // release parent memory before recursing
  indices->shrink_to_fit();

  int left_id = BuildNode(X, y, w, &left_idx, depth + 1, rng);
  int right_id = BuildNode(X, y, w, &right_idx, depth + 1, rng);
  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  nodes_[node_id].left = left_id;
  nodes_[node_id].right = right_id;
  return node_id;
}

}  // namespace

Result<std::vector<DecisionTreeClassifier::Node>> FitClassifierTree(
    const TreeOptions& options, const Matrix& X, const std::vector<int>& y,
    const std::vector<double>* sample_weights) {
  AUTOEM_RETURN_IF_ERROR(ValidateFitInputs(X, y, sample_weights));
  std::vector<double> w =
      sample_weights ? *sample_weights : std::vector<double>(y.size(), 1.0);
  std::vector<size_t> indices;
  indices.reserve(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    if (w[i] > 0.0) indices.push_back(i);
  }
  if (indices.empty()) {
    return Status::InvalidArgument("all sample weights are zero");
  }
  Rng rng(options.seed);
  SortingTreeBuilder builder{options, {}};
  builder.BuildNode(X, y, w, &indices, 0, &rng);
  AUTOEM_RETURN_IF_ERROR(options.cancel.Check("tree.fit"));
  return std::move(builder.nodes_);
}

}  // namespace reference

double DecisionTreeClassifier::PredictRowProba(const double* row) const {
  AUTOEM_CHECK(!nodes_.empty());
  int cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    double v = SplitValue(row[n.feature]);
    cur = v <= n.threshold ? n.left : n.right;
  }
  return nodes_[cur].prob_positive;
}

std::vector<double> DecisionTreeClassifier::PredictProba(
    const Matrix& X) const {
  std::vector<double> out(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) out[r] = PredictRowProba(X.RowPtr(r));
  return out;
}

std::unique_ptr<Classifier> DecisionTreeClassifier::CloneConfig() const {
  return std::make_unique<DecisionTreeClassifier>(options_);
}

size_t DecisionTreeClassifier::Depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the explicit node array.
  std::vector<std::pair<int, size_t>> stack = {{0, 0}};
  size_t max_depth = 0;
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[id];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

// ---- RegressionTree ----------------------------------------------------------

RegressionTree::RegressionTree(TreeOptions options)
    : options_(std::move(options)) {}

Status RegressionTree::Fit(const Matrix& X, const std::vector<double>& y,
                           const std::vector<double>* sample_weights) {
  if (X.rows() == 0 || X.cols() == 0) {
    return Status::InvalidArgument("empty training matrix");
  }
  if (X.rows() != y.size()) {
    return Status::InvalidArgument("X rows != y size");
  }
  AUTOEM_RETURN_IF_ERROR(ValidateSampleWeights(sample_weights, y.size()));
  nodes_.clear();
  std::vector<double> w =
      sample_weights ? *sample_weights : std::vector<double>(y.size(), 1.0);
  std::vector<size_t> indices;
  for (size_t i = 0; i < y.size(); ++i) {
    if (w[i] > 0.0) indices.push_back(i);
  }
  if (indices.empty()) {
    return Status::InvalidArgument("all sample weights are zero");
  }
  Rng rng(options_.seed);
  BuildNode(X, y, w, &indices, 0, &rng);
  return options_.cancel.Check("regression_tree.fit");
}

int RegressionTree::BuildNode(const Matrix& X, const std::vector<double>& y,
                              const std::vector<double>& w,
                              std::vector<size_t>* indices, int depth,
                              Rng* rng) {
  const auto& idx = *indices;
  double w_total = 0.0, w_sum = 0.0, w_sum_sq = 0.0;
  for (size_t i : idx) {
    w_total += w[i];
    w_sum += w[i] * y[i];
    w_sum_sq += w[i] * y[i] * y[i];
  }
  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = w_total > 0.0 ? w_sum / w_total : 0.0;

  if (options_.cancel.Cancelled()) return node_id;

  double parent_sse = w_sum_sq - (w_total > 0 ? w_sum * w_sum / w_total : 0.0);
  const bool depth_capped =
      options_.max_depth > 0 && depth >= options_.max_depth;
  if (depth_capped || parent_sse <= 1e-12 ||
      idx.size() < static_cast<size_t>(options_.min_samples_split) ||
      idx.size() < 2 * static_cast<size_t>(options_.min_samples_leaf)) {
    return node_id;
  }

  size_t n_try = NumFeaturesToTry(options_.max_features, X.cols());
  std::vector<size_t> features =
      rng->SampleWithoutReplacement(X.cols(), n_try);

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = std::max(options_.min_impurity_decrease, 1e-12);

  std::vector<std::pair<double, size_t>> vals;
  vals.reserve(idx.size());
  const size_t min_leaf = static_cast<size_t>(options_.min_samples_leaf);

  for (size_t f : features) {
    vals.clear();
    for (size_t i : idx) vals.emplace_back(SplitValue(X.At(i, f)), i);
    // idx is ascending, so this is (value, row) order.
    std::stable_sort(
        vals.begin(), vals.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    double wl = 0.0, wl_sum = 0.0, wl_sum_sq = 0.0;
    for (size_t k = 0; k + 1 < vals.size(); ++k) {
      size_t i = vals[k].second;
      wl += w[i];
      wl_sum += w[i] * y[i];
      wl_sum_sq += w[i] * y[i] * y[i];
      if (vals[k].first == vals[k + 1].first) continue;
      size_t nl = k + 1;
      size_t nr = vals.size() - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      double wr = w_total - wl;
      double wr_sum = w_sum - wl_sum;
      double wr_sum_sq = w_sum_sq - wl_sum_sq;
      if (wl <= 0.0 || wr <= 0.0) continue;
      double sse_left = wl_sum_sq - wl_sum * wl_sum / wl;
      double sse_right = wr_sum_sq - wr_sum * wr_sum / wr;
      double gain = parent_sse - sse_left - sse_right;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = CutThreshold(vals[k].first, vals[k + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<size_t> left_idx;
  std::vector<size_t> right_idx;
  for (size_t i : idx) {
    if (SplitValue(X.At(i, static_cast<size_t>(best_feature))) <=
        best_threshold) {
      left_idx.push_back(i);
    } else {
      right_idx.push_back(i);
    }
  }
  if (left_idx.empty() || right_idx.empty()) return node_id;

  indices->clear();
  indices->shrink_to_fit();

  int left_id = BuildNode(X, y, w, &left_idx, depth + 1, rng);
  int right_id = BuildNode(X, y, w, &right_idx, depth + 1, rng);
  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  nodes_[node_id].left = left_id;
  nodes_[node_id].right = right_id;
  return node_id;
}

double RegressionTree::PredictRow(const double* row) const {
  AUTOEM_CHECK(!nodes_.empty());
  int cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    double v = SplitValue(row[n.feature]);
    cur = v <= n.threshold ? n.left : n.right;
  }
  return nodes_[cur].value;
}

std::vector<double> RegressionTree::Predict(const Matrix& X) const {
  std::vector<double> out(X.rows());
  for (size_t r = 0; r < X.rows(); ++r) out[r] = PredictRow(X.RowPtr(r));
  return out;
}


Status DecisionTreeClassifier::SaveFitted(io::Writer* w) const {
  w->U64(nodes_.size());
  for (const Node& n : nodes_) {
    w->I32(n.feature);
    w->F64(n.threshold);
    w->I32(n.left);
    w->I32(n.right);
    w->F64(n.prob_positive);
  }
  return Status::OK();
}

Status DecisionTreeClassifier::LoadFitted(io::Reader* r) {
  uint64_t count;
  // 28 bytes per encoded node: 2 doubles + 3 i32.
  AUTOEM_RETURN_IF_ERROR(r->Len(&count, 28));
  if (count == 0) {
    return Status::InvalidArgument("decision_tree: tree has no nodes");
  }
  nodes_.assign(static_cast<size_t>(count), Node{});
  for (Node& n : nodes_) {
    AUTOEM_RETURN_IF_ERROR(r->I32(&n.feature));
    AUTOEM_RETURN_IF_ERROR(r->F64(&n.threshold));
    AUTOEM_RETURN_IF_ERROR(r->I32(&n.left));
    AUTOEM_RETURN_IF_ERROR(r->I32(&n.right));
    AUTOEM_RETURN_IF_ERROR(r->F64(&n.prob_positive));
    // Child ids must stay inside the node array and point strictly forward
    // (the DFS build always appends children after their parent), so a
    // crafted or corrupted payload can neither make the prediction walk go
    // out of bounds nor cycle — the flattened relayout (flat_forest.h)
    // relies on both properties. Internal nodes must have two children.
    const int64_t self = static_cast<int64_t>(&n - nodes_.data());
    const int64_t limit = static_cast<int64_t>(count);
    if (n.feature < -1) {
      return Status::InvalidArgument("decision_tree: bad feature index");
    }
    // Every walk sends a NaN cell left, but a NaN threshold would send the
    // scalar walk right and the flattened one left.
    if (n.feature >= 0 && std::isnan(n.threshold)) {
      return Status::InvalidArgument("decision_tree: NaN split threshold");
    }
    if (n.feature >= 0 &&
        (n.left <= self || n.left >= limit || n.right <= self ||
         n.right >= limit)) {
      return Status::InvalidArgument("decision_tree: node index out of range");
    }
  }
  // A well-formed tree references every non-root node exactly once; shared
  // children would make the relayout's breadth-first expansion quadratic or
  // worse on crafted input.
  std::vector<bool> referenced(nodes_.size(), false);
  for (const Node& n : nodes_) {
    if (n.feature < 0) continue;
    if (referenced[n.left] || referenced[n.right] || n.left == n.right) {
      return Status::InvalidArgument("decision_tree: node referenced twice");
    }
    referenced[n.left] = true;
    referenced[n.right] = true;
  }
  return Status::OK();
}

Status DecisionTreeClassifier::CheckInputWidth(size_t width) const {
  for (const Node& n : nodes_) {
    if (n.feature >= 0 && static_cast<size_t>(n.feature) >= width) {
      return Status::InvalidArgument(
          name() + ": splits on feature " + std::to_string(n.feature) +
          ", input has " + std::to_string(width) + " columns");
    }
  }
  return Status::OK();
}

}  // namespace autoem
